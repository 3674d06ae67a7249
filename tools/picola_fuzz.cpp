// Differential fuzz harness (ISSUE: self-check verifier subsystem).
//
// Streams seeded deterministic instances (check/instance_gen.h) through
// picola_encode with PicolaOptions::self_check on — every column equals
// the per-symbol reference solver's (check/reference_column.h) bit for
// bit, and every column and the finished run pass the from-scratch
// verifier — and differential-tests small instances against the exact
// brute-force oracle (check/oracle.h):
//
//  * determinism: the same options reproduce bit-identical codes, with
//    and without random tie-breaking;
//  * the encoder never claims more satisfied constraints than the true
//    optimum, and everything it satisfies is oracle-satisfiable;
//  * a constraint flagged infeasible for one of Classify()'s *sound*
//    reasons (unused-code budget, supercube past nv, exhausted pin
//    budget) is genuinely unsatisfiable under the prefix at flag time
//    (satisfiable_with_prefix); pairwise flags are by design a
//    conservative filter and are exempt;
//  * sampled: espresso-evaluated total cubes never beat the oracle's
//    minimum over all encodings;
//  * the cost kernel (evaluate_constraints, constraint_cover) agrees with
//    the reference evaluator (check/reference_eval.h) on the PICOLA codes
//    and on seeded random codes at nv = min, min+1 or min+2.
//
// --portfolio switches to the portfolio-differential mode: every
// instance runs through the backend portfolio (src/portfolio: picola
// restarts plus the sat slot) with self-check on, must be bit-identical
// across repeated runs and never worse than picola alone, and on
// oracle-sized instances the sat_exact backend's verdict is diffed
// against the brute-force oracle (proven results must hit the exact
// optimum).  The same instances also drive the sweep differential: the
// incremental descending and binary sweeps must return verdicts and
// models bit-identical to scratch re-solving per target, and the lazy
// distinctness encoding must reach the same optimum with a verifying
// encoding.  Each instance also gets one self-checked `--backend anneal`
// encode, which the portfolio no longer runs but the service still
// serves.  Every slot's encoding, the annealer's included, is held to
// the reference evaluator.
//
// Failures are shrunk to a minimal reproducer (drop constraints, drop
// members, drop trailing unused symbols) and dumped in .con format.
//
// Usage: picola_fuzz [--seed S] [--iters N] [--max-n N] [--oracle-n N]
//                    [--min-cube-every K] [--dump-dir DIR] [--portfolio]
//                    [--verbose]

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/parse_util.h"
#include "check/instance_gen.h"
#include "check/oracle.h"
#include "check/reference_eval.h"
#include "check/verifier.h"
#include "constraints/constraint_io.h"
#include "constraints/dichotomy.h"
#include "core/picola.h"
#include "encoders/trivial.h"
#include "eval/constraint_eval.h"
#include "obs/metrics.h"
#include "portfolio/portfolio.h"
#include "sat/encode.h"

namespace picola {
namespace {

struct FuzzOptions {
  uint64_t seed = 1;
  long iters = 1000;
  int max_n = 16;
  int oracle_n = 8;
  long min_cube_every = 64;  ///< espresso-oracle sampling period (0 = off)
  std::string dump_dir = ".";
  bool portfolio_mode = false;  ///< portfolio-differential checks instead
  bool verbose = false;
};

struct FuzzCounters {
  long invariant_checked = 0;
  long oracle_checked = 0;
  long min_cube_eligible = 0;  ///< instances small enough for the espresso oracle
  long min_cube_checked = 0;
  long prefix_checked = 0;  ///< satisfiable_with_prefix differential tests
  long sweep_checked = 0;   ///< incremental-vs-scratch sweep differentials
  long eval_checked = 0;    ///< encodings scored by kernel and reference
  long failures = 0;
};

/// The pin budget / static budget / dimension reasons of Classify() are
/// sound individual-unsatisfiability proofs; the pairwise test is a
/// conservative filter.  Recompute which kind fired for `c` at `col`
/// from the final encoding's prefix (the first col columns never change
/// after generation).
bool flag_reason_is_sound(const FaceConstraint& c, const Encoding& enc,
                          int col) {
  const int nv = enc.num_bits;
  int pinned = 0;
  for (int b = 0; b < col; ++b) {
    int v = enc.bit(c.members[0], b);
    bool uniform = true;
    for (int m : c.members)
      if (enc.bit(m, b) != v) { uniform = false; break; }
    if (uniform) ++pinned;
  }
  int free_cols = col - pinned;
  int clog2 = 0;
  while ((1L << clog2) < c.size()) ++clog2;
  int dim = std::max(clog2, free_cols);
  if (dim > nv) return true;
  long global_dc = (1L << nv) - enc.num_symbols;
  if ((1L << dim) - c.size() > global_dc) return true;
  return (nv - dim) - pinned <= 0;
}

/// Cost kernel vs the reference evaluator on one encoding.
void check_eval(const ConstraintSet& cs, const Encoding& enc,
                const std::string& what, std::vector<std::string>* v,
                FuzzCounters* counters) {
  std::string mismatch = check::eval_mismatch(cs, enc);
  if (!mismatch.empty())
    v->push_back("cost kernel vs reference on " + what + ": " + mismatch);
  if (counters) ++counters->eval_checked;
}

/// Portfolio-differential checks for one instance (--portfolio):
/// determinism and the never-worse-than-picola guarantee of the full
/// portfolio, plus the sat_exact-vs-oracle differential on small
/// instances.
std::vector<std::string> check_portfolio_instance(const ConstraintSet& cs,
                                                  int num_bits, uint64_t iter,
                                                  const FuzzOptions& fo,
                                                  FuzzCounters* counters) {
  std::vector<std::string> v;
  PicolaOptions popt;
  popt.num_bits = num_bits;
  popt.self_check = true;  // every backend's output through the verifier
  portfolio::PortfolioOptions all;
  all.backend = portfolio::BackendKind::kPortfolio;
  portfolio::PortfolioOptions anneal;
  anneal.backend = portfolio::BackendKind::kAnneal;
  anneal.anneal_seed = iter + 1;
  const int kRestarts = 2;

  portfolio::PortfolioResult res, annealed;
  try {
    res = portfolio::portfolio_encode(cs, kRestarts, popt, all);
    annealed = portfolio::portfolio_encode(cs, 1, popt, anneal);
  } catch (const check::SelfCheckError& e) {
    v.push_back(std::string("self-check: ") + e.what());
    return v;
  } catch (const std::exception& e) {
    v.push_back(std::string("unexpected throw: ") + e.what());
    return v;
  }
  if (counters) ++counters->invariant_checked;

  for (const portfolio::BackendOutcome& o : res.outcomes)
    if (o.feasible)
      check_eval(cs, o.result.encoding,
                 std::string(portfolio::backend_kind_name(o.backend)) +
                     " slot codes",
                 &v, counters);
  check_eval(cs, annealed.picola.encoding, "anneal codes", &v, counters);

  // The whole portfolio must be bit-identical across runs.
  portfolio::PortfolioResult again =
      portfolio::portfolio_encode(cs, kRestarts, popt, all);
  if (again.picola.encoding.codes != res.picola.encoding.codes ||
      again.backend != res.backend || again.total_cubes != res.total_cubes)
    v.push_back("non-deterministic portfolio result");

  // Structurally never worse than picola alone (the picola slots come
  // first in the plan with identical seeds).
  portfolio::PortfolioOptions alone;
  alone.backend = portfolio::BackendKind::kPicola;
  portfolio::PortfolioResult base =
      portfolio::portfolio_encode(cs, kRestarts, popt, alone);
  if (res.total_cubes > base.total_cubes)
    v.push_back("portfolio reached " + std::to_string(res.total_cubes) +
                " cubes, worse than picola alone at " +
                std::to_string(base.total_cubes));

  // sat_exact vs the brute-force oracle on small instances: a proven
  // result must hit the exact optimum, any result must verify.
  if (cs.num_symbols <= fo.oracle_n && cs.size() <= 20 && num_bits <= 8) {
    sat::SatExactOptions so;
    so.num_bits = num_bits;
    try {
      check::OracleResult oracle = check::oracle_solve(cs, num_bits);
      sat::SatExactResult sres = sat::sat_exact_encode(cs, so);
      if (counters) ++counters->oracle_checked;
      if (!sres.feasible) {
        v.push_back("sat backend found no encoding on a feasible instance");
      } else {
        check::VerifyReport rep = check::verify_encoding(cs, sres.encoding);
        if (!rep.ok())
          v.push_back("sat encoding fails verification: " + rep.to_string());
        if (sres.satisfied > oracle.max_satisfied)
          v.push_back("sat backend claims " + std::to_string(sres.satisfied) +
                      " satisfied constraints, oracle optimum is " +
                      std::to_string(oracle.max_satisfied));
        if (sres.proven && sres.satisfied != oracle.max_satisfied)
          v.push_back("sat backend proved " + std::to_string(sres.satisfied) +
                      " satisfied constraints, oracle optimum is " +
                      std::to_string(oracle.max_satisfied));
      }

      // Sweep differential: the incremental modes (descending, binary)
      // must return verdicts and models bit-identical to scratch
      // re-solving per target — the canonical final solve makes the
      // reported encoding a pure function of (CNF, best target), so any
      // divergence in codes (and hence cube counts) is a bug in the
      // assumption machinery or the incremental clause accounting.
      if (counters) ++counters->sweep_checked;
      auto diff_sweep = [&](sat::SweepMode mode, const char* name) {
        sat::SatExactOptions alt = so;
        alt.sweep = mode;
        sat::SatExactResult other = sat::sat_exact_encode(cs, alt);
        if (other.feasible != sres.feasible ||
            other.satisfied != sres.satisfied ||
            other.proven != sres.proven)
          v.push_back(std::string("sweep differential: ") + name +
                      " verdict (feasible=" +
                      std::to_string(other.feasible) + ", satisfied=" +
                      std::to_string(other.satisfied) + ", proven=" +
                      std::to_string(other.proven) +
                      ") diverges from descending (" +
                      std::to_string(sres.feasible) + ", " +
                      std::to_string(sres.satisfied) + ", " +
                      std::to_string(sres.proven) + ")");
        else if (other.feasible &&
                 other.encoding.codes != sres.encoding.codes)
          v.push_back(std::string("sweep differential: ") + name +
                      " model differs from descending despite the "
                      "canonical-solve contract");
      };
      diff_sweep(sat::SweepMode::kScratch, "scratch");
      diff_sweep(sat::SweepMode::kBinary, "binary");

      // The lazy distinctness encoding changes the CNF (and hence may
      // legitimately pick a different optimal model), but verdict and
      // optimum must match and its encoding must verify.
      {
        sat::SatExactOptions lz = so;
        lz.distinct = sat::DistinctEncoding::kLazy;
        sat::SatExactResult lazy = sat::sat_exact_encode(cs, lz);
        if (lazy.feasible != sres.feasible ||
            lazy.satisfied != sres.satisfied || lazy.proven != sres.proven)
          v.push_back("lazy distinctness verdict diverges from difference");
        else if (lazy.feasible &&
                 !check::verify_encoding(cs, lazy.encoding).ok())
          v.push_back("lazy distinctness encoding fails verification");
      }
    } catch (const std::invalid_argument&) {
      // oracle or reduction over budget for this nv; skip the differential
    }
  }
  return v;
}

/// All checks for one instance.  Returns the violations found (empty =
/// clean).  `counters` may be null (the shrinker re-runs this predicate
/// without counting).
std::vector<std::string> check_instance(const ConstraintSet& cs, int num_bits,
                                        uint64_t iter, const FuzzOptions& fo,
                                        FuzzCounters* counters) {
  if (fo.portfolio_mode)
    return check_portfolio_instance(cs, num_bits, iter, fo, counters);
  std::vector<std::string> v;
  PicolaOptions opt;
  opt.num_bits = num_bits;
  opt.self_check = true;

  PicolaResult res;
  try {
    res = picola_encode(cs, opt);
  } catch (const check::SelfCheckError& e) {
    v.push_back(std::string("self-check: ") + e.what());
    return v;
  } catch (const std::exception& e) {
    v.push_back(std::string("unexpected throw: ") + e.what());
    return v;
  }
  if (counters) ++counters->invariant_checked;
  const Encoding& enc = res.encoding;
  const int n = cs.num_symbols;
  const int nv = enc.num_bits;

  // Determinism, deterministic and randomized tie-breaking alike.
  if (picola_encode(cs, opt).encoding.codes != enc.codes)
    v.push_back("non-deterministic result (tie_break_seed = 0)");
  {
    PicolaOptions r = opt;
    r.tie_break_seed = iter * 2 + 1;
    if (picola_encode(cs, r).encoding.codes !=
        picola_encode(cs, r).encoding.codes)
      v.push_back("non-deterministic result (tie_break_seed = " +
                  std::to_string(r.tie_break_seed) + ")");
  }

  // Random codes leave most constraints with an intruder, so they drive
  // the kernel's ESPRESSO path far more often than PICOLA's codes do.
  check_eval(cs, enc, "PICOLA codes", &v, counters);
  const int random_bits = Encoding::min_bits(n) + static_cast<int>(iter % 3);
  check_eval(cs,
             random_encoding(n, fo.seed ^ (iter * 0x9E3779B97F4A7C15ULL),
                             random_bits),
             "random " + std::to_string(random_bits) + "-bit codes", &v,
             counters);

  // Sound infeasibility flags must hold up against the exact
  // prefix-conditioned satisfiability test (cost-capped).
  for (auto [col, row] : res.stats.infeasible_events) {
    if (row >= cs.size()) continue;  // guide rows re-derive from originals
    const FaceConstraint& c = cs.constraints[static_cast<size_t>(row)];
    if (!flag_reason_is_sound(c, enc, col)) continue;
    long cost = 1;
    for (int i = 1; i < c.size() && cost <= 500'000; ++i)
      cost *= 1L << (nv - col);
    if (cost > 500'000 || nv > 20) continue;
    std::vector<uint32_t> prefixes(enc.codes);
    uint32_t mask = (uint32_t{1} << col) - 1;
    for (auto& p : prefixes) p &= mask;
    if (counters) ++counters->prefix_checked;
    if (check::satisfiable_with_prefix(c, n, nv, prefixes, col))
      v.push_back("constraint " + std::to_string(row) +
                  " flagged infeasible at column " + std::to_string(col) +
                  " but is still satisfiable under that prefix");
  }

  // Exact-oracle differential for small instances.
  if (n <= fo.oracle_n && cs.size() <= 64) {
    // Sample every K-th *eligible* instance (n <= 5 keeps the
    // espresso-per-candidate cost sane); the shrinker (counters == null)
    // skips this check.
    bool want_cubes = fo.min_cube_every > 0 && n <= 5 && counters &&
                      counters->min_cube_eligible++ % fo.min_cube_every == 0;
    check::OracleOptions oo;
    oo.min_cubes = want_cubes;
    try {
      check::OracleResult oracle = check::oracle_solve(cs, nv, oo);
      if (counters) ++counters->oracle_checked;
      int satisfied = 0;
      for (int k = 0; k < cs.size(); ++k) {
        bool sat =
            constraint_satisfied(cs.constraints[static_cast<size_t>(k)], enc);
        if (sat) ++satisfied;
        if (sat && !(oracle.satisfiable_mask >> k & 1))
          v.push_back("constraint " + std::to_string(k) +
                      " satisfied by the encoder but oracle-unsatisfiable");
      }
      if (satisfied != res.stats.satisfied_constraints)
        v.push_back("stats report " +
                    std::to_string(res.stats.satisfied_constraints) +
                    " satisfied constraints, re-derived " +
                    std::to_string(satisfied));
      if (satisfied > oracle.max_satisfied)
        v.push_back("encoder satisfied " + std::to_string(satisfied) +
                    " constraints, oracle optimum is " +
                    std::to_string(oracle.max_satisfied));
      // Before any column exists the pairwise filter cannot fire (nothing
      // is satisfied yet), so a column-0 flag claims plain
      // unsatisfiability — the oracle must agree.
      for (auto [col, row] : res.stats.infeasible_events)
        if (col == 0 && row < cs.size() &&
            (oracle.satisfiable_mask >> row & 1))
          v.push_back("constraint " + std::to_string(row) +
                      " flagged infeasible before column 0 but is "
                      "oracle-satisfiable");
      if (want_cubes) {
        if (counters) ++counters->min_cube_checked;
        int cubes = evaluate_constraints(cs, enc).total_cubes;
        if (cubes < oracle.min_total_cubes)
          v.push_back("encoder reached " + std::to_string(cubes) +
                      " cubes, below the oracle minimum " +
                      std::to_string(oracle.min_total_cubes));
      }
    } catch (const std::invalid_argument&) {
      // search space over budget for this nv; skip the differential
    }
  }
  return v;
}

/// Greedy shrink: keep applying the first reduction that still fails.
ConstraintSet shrink(ConstraintSet cs, int num_bits, uint64_t iter,
                     const FuzzOptions& fo) {
  auto still_fails = [&](const ConstraintSet& candidate) {
    return !candidate.validate().empty()
               ? false
               : !check_instance(candidate, num_bits, iter, fo, nullptr)
                      .empty();
  };
  bool reduced = true;
  while (reduced) {
    reduced = false;
    for (size_t i = 0; i < cs.constraints.size() && !reduced; ++i) {
      ConstraintSet c = cs;
      c.constraints.erase(c.constraints.begin() + static_cast<long>(i));
      if (!c.constraints.empty() && still_fails(c)) {
        cs = std::move(c);
        reduced = true;
      }
    }
    for (size_t i = 0; i < cs.constraints.size() && !reduced; ++i) {
      if (cs.constraints[i].size() <= 2) continue;
      for (size_t j = 0; j < cs.constraints[i].members.size() && !reduced;
           ++j) {
        ConstraintSet c = cs;
        c.constraints[i].members.erase(c.constraints[i].members.begin() +
                                       static_cast<long>(j));
        if (still_fails(c)) {
          cs = std::move(c);
          reduced = true;
        }
      }
    }
    // Drop the top symbol when no constraint uses it.
    while (cs.num_symbols > 2 && !reduced) {
      int top = cs.num_symbols - 1;
      bool used = false;
      for (const auto& c : cs.constraints) used |= c.contains(top);
      if (used) break;
      ConstraintSet c = cs;
      c.num_symbols = top;
      if (!still_fails(c)) break;
      cs = std::move(c);
      reduced = true;
    }
  }
  return cs;
}

int fuzz_main(const FuzzOptions& fo) {
  check::GeneratorOptions big;
  big.max_symbols = fo.max_n;
  check::InstanceGenerator gen(fo.seed, big);
  // A second stream dense in oracle-sized instances so the differential
  // check gets real coverage even with a large --max-n.
  check::GeneratorOptions small;
  small.max_symbols = std::max(small.min_symbols, fo.oracle_n);
  check::InstanceGenerator small_gen(fo.seed ^ 0x5DEECE66DULL, small);

  FuzzCounters counters;
  for (long i = 0; i < fo.iters; ++i) {
    auto inst = i % 4 == 3 ? small_gen.next() : gen.next();
    std::vector<std::string> violations = check_instance(
        inst.set, inst.num_bits, static_cast<uint64_t>(i), fo, &counters);
    if (violations.empty()) {
      if (fo.verbose)
        std::cerr << "iter " << i << " ok (" << inst.family << ", n="
                  << inst.set.num_symbols << ", " << inst.set.size()
                  << " constraints)\n";
      continue;
    }
    ++counters.failures;
    std::cerr << "FAIL iter " << i << " (" << inst.family << ", seed "
              << fo.seed << "):\n";
    for (const auto& v : violations) std::cerr << "  " << v << "\n";
    // One-command repro: the generator streams are a pure function of
    // (seed, max-n, oracle-n), so replaying up to this iteration with the
    // same knobs hits the identical instance.
    std::cerr << "  repro: picola_fuzz --seed " << fo.seed << " --iters "
              << (i + 1) << " --max-n " << fo.max_n << " --oracle-n "
              << fo.oracle_n << " --min-cube-every " << fo.min_cube_every
              << (fo.portfolio_mode ? " --portfolio" : "") << "\n";
    ConstraintSet minimal =
        shrink(inst.set, inst.num_bits, static_cast<uint64_t>(i), fo);
    std::string path = fo.dump_dir + "/fuzz_fail_seed" +
                       std::to_string(fo.seed) + "_iter" + std::to_string(i) +
                       ".con";
    std::ofstream out(path);
    if (out) {
      out << "# picola_fuzz --seed " << fo.seed << ", iteration " << i
          << " (" << inst.family << " family, num_bits=" << inst.num_bits
          << ")\n";
      for (const auto& v : violations) out << "# " << v << "\n";
      out << write_constraints(minimal);
      std::cerr << "  minimal repro (" << minimal.num_symbols << " symbols, "
                << minimal.size() << " constraints) written to " << path
                << "\n";
    }
  }

  auto& reg = obs::MetricsRegistry::global();
  std::cout << "picola_fuzz" << (fo.portfolio_mode ? " (portfolio)" : "")
            << ": " << fo.iters << " iterations, "
            << counters.invariant_checked << " invariant-checked, "
            << counters.oracle_checked << " oracle-checked, "
            << counters.prefix_checked << " prefix-differential, "
            << counters.sweep_checked << " sweep-differential, "
            << counters.eval_checked << " eval-differential, "
            << counters.min_cube_checked << " min-cube-checked, "
            << counters.failures << " failures, check/violations="
            << reg.counter("check/violations").value() << "\n";
  return counters.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace picola

int main(int argc, char** argv) {
  picola::FuzzOptions fo;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::optional<long> {
      if (i + 1 >= argc) return std::nullopt;
      auto v = picola::parse_int(argv[++i]);
      if (!v) return std::nullopt;
      return *v;
    };
    std::optional<long> v;
    if (a == "--seed" && (v = value()) && *v >= 0)
      fo.seed = static_cast<uint64_t>(*v);
    else if (a == "--iters" && (v = value()) && *v >= 1)
      fo.iters = *v;
    else if (a == "--max-n" && (v = value()) && *v >= 3)
      fo.max_n = static_cast<int>(std::min<long>(*v, 1 << 20));
    else if (a == "--oracle-n" && (v = value()) && *v >= 2)
      fo.oracle_n = static_cast<int>(std::min<long>(*v, 12));
    else if (a == "--min-cube-every" && (v = value()) && *v >= 0)
      fo.min_cube_every = *v;
    else if (a == "--dump-dir" && i + 1 < argc)
      fo.dump_dir = argv[++i];
    else if (a == "--portfolio")
      fo.portfolio_mode = true;
    else if (a == "--verbose")
      fo.verbose = true;
    else {
      std::cerr << "usage: picola_fuzz [--seed S] [--iters N] [--max-n N] "
                   "[--oracle-n N] [--min-cube-every K] [--dump-dir DIR] "
                   "[--portfolio] [--verbose]\n";
      return 2;
    }
  }
  return picola::fuzz_main(fo);
}
