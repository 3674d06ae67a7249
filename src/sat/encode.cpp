#include "sat/encode.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "constraints/dichotomy.h"
#include "obs/obs.h"

namespace picola::sat {

namespace {

/// Difference distinctness: per pair (s, t) and bit b an aux var d with
/// d → "bit b differs between s and t", plus the clause "some d fires".
/// n(n-1)/2 · nv aux vars and n(n-1)/2 · (2nv+1) clauses — polynomial in
/// n and nv, which is what lets the full Table I suite through.  Pairs
/// against the pinned symbol 0 need no aux vars at all: code(t) ≠ 0 is
/// just "some bit of t is 1".
void add_difference_distinctness(FaceCnf& fc) {
  Cnf& cnf = fc.cnf;
  const int n = fc.num_symbols;
  const int nv = fc.num_bits;
  std::vector<int> differs;
  for (int t = 1; t < n; ++t) {
    differs.clear();
    for (int b = 0; b < nv; ++b) differs.push_back(fc.bit_var(t, b));
    cnf.add_clause(differs);
  }
  for (int s = 1; s < n; ++s) {
    for (int t = s + 1; t < n; ++t) {
      differs.clear();
      for (int b = 0; b < nv; ++b) {
        int d = cnf.new_var();
        int xs = fc.bit_var(s, b), xt = fc.bit_var(t, b);
        cnf.add_clause({-d, xs, xt});    // d -> not both 0
        cnf.add_clause({-d, -xs, -xt});  // d -> not both 1
        differs.push_back(d);
      }
      cnf.add_clause(differs);
    }
  }
}

}  // namespace

FaceCnf build_face_cnf(const ConstraintSet& cs, int nv,
                       const ReductionOptions& opt) {
  std::string err = cs.validate();
  if (!err.empty()) throw std::invalid_argument("sat: invalid set: " + err);
  if (nv < 1 || nv > 20)
    throw std::invalid_argument("sat: num_bits " + std::to_string(nv) +
                                " out of range [1, 20]");
  const int n = cs.num_symbols;
  const long pairs = static_cast<long>(n) * (n - 1) / 2;
  if (pairs * nv > 50'000'000)
    throw std::invalid_argument("sat: " + std::to_string(n) +
                                " symbols is too large for the difference "
                                "encoding");

  FaceCnf fc;
  fc.num_symbols = n;
  fc.num_bits = nv;
  Cnf& cnf = fc.cnf;
  cnf.num_vars = n * nv;  // the x[s][b] block sits first

  for (int b = 0; b < nv; ++b) cnf.add_clause({-fc.bit_var(0, b)});
  add_difference_distinctness(fc);

  // Face constraints: non-member t stays outside the members' supercube
  // iff some bit separates it (all members 1 and t 0, or vice versa).
  std::vector<uint8_t> member(static_cast<size_t>(n));
  for (const FaceConstraint& c : cs.constraints) {
    member.assign(static_cast<size_t>(n), 0);
    for (int s : c.members) member[static_cast<size_t>(s)] = 1;

    int yk = 0;
    if (opt.with_selectors) {
      yk = cnf.new_var();
      fc.selectors.push_back(yk);
    }

    std::vector<int> all1(static_cast<size_t>(nv)), all0(static_cast<size_t>(nv));
    for (int b = 0; b < nv; ++b) {
      all1[static_cast<size_t>(b)] = cnf.new_var();
      all0[static_cast<size_t>(b)] = cnf.new_var();
      for (int s : c.members) {
        cnf.add_clause({-all1[static_cast<size_t>(b)], fc.bit_var(s, b)});
        cnf.add_clause({-all0[static_cast<size_t>(b)], -fc.bit_var(s, b)});
      }
    }

    std::vector<int> excl;
    for (int t = 0; t < n; ++t) {
      if (member[static_cast<size_t>(t)]) continue;
      excl.clear();
      if (yk != 0) excl.push_back(-yk);
      for (int b = 0; b < nv; ++b) {
        int s1 = cnf.new_var();  // members all 1 at b, t is 0
        int s0 = cnf.new_var();  // members all 0 at b, t is 1
        cnf.add_clause({-s1, all1[static_cast<size_t>(b)]});
        cnf.add_clause({-s1, -fc.bit_var(t, b)});
        cnf.add_clause({-s0, all0[static_cast<size_t>(b)]});
        cnf.add_clause({-s0, fc.bit_var(t, b)});
        excl.push_back(s1);
        excl.push_back(s0);
      }
      cnf.add_clause(excl);
    }
  }
  return fc;
}

Encoding decode_model(const FaceCnf& fc, const Solver& solver) {
  Encoding enc;
  enc.num_symbols = fc.num_symbols;
  enc.num_bits = fc.num_bits;
  enc.codes.assign(static_cast<size_t>(fc.num_symbols), 0);
  for (int s = 0; s < fc.num_symbols; ++s) {
    uint32_t code = 0;
    for (int b = 0; b < fc.num_bits; ++b)
      if (solver.model_value(fc.bit_var(s, b))) code |= 1u << b;
    enc.codes[static_cast<size_t>(s)] = code;
  }
  return enc;
}

namespace {

/// Shared state of one sat_exact_encode run: the selector reduction plus
/// the violation totalizer that turns every at-least-t target into a
/// single assumption literal.
struct SweepContext {
  FaceCnf base;           ///< selector reduction (cnf NOT solved directly)
  Cnf work;               ///< base.cnf + totalizer over ¬selectors
  std::vector<int> viol;  ///< viol[j] = "at least j+1 constraints violated"
};

/// Assumption set enforcing "at least `target` constraints satisfied":
/// at most m - target violated, i.e. ¬viol[m - target].
std::vector<int> target_assumptions(const SweepContext& ctx, int target) {
  const int m = static_cast<int>(ctx.base.selectors.size());
  const int c = m - target;
  if (target <= 0 || c >= m) return {};
  return {-ctx.viol[static_cast<size_t>(c)]};
}

void accumulate(SolverStats* into, const SolverStats& s) {
  into->decisions += s.decisions;
  into->propagations += s.propagations;
  into->conflicts += s.conflicts;
  into->restarts += s.restarts;
  into->learned_clauses += s.learned_clauses;
  into->learned_literals += s.learned_literals;
  into->db_reductions += s.db_reductions;
}

}  // namespace

SatExactResult sat_exact_encode(const ConstraintSet& cs,
                                const SatExactOptions& opt) {
  PICOLA_OBS_SPAN(span, "sat/exact_encode");
  // A length too short for distinct codes is not an error here: the
  // reduction answers it with a proof of infeasibility.
  const int nv = Encoding::resolve_bits(cs.num_symbols, opt.num_bits,
                                        "sat_exact_encode",
                                        /*allow_short=*/true);
  ReductionOptions ro;
  ro.with_selectors = true;

  SweepContext ctx;
  ctx.base = build_face_cnf(cs, nv, ro);
  ctx.work = ctx.base.cnf;
  {
    std::vector<int> violated;
    violated.reserve(ctx.base.selectors.size());
    for (int y : ctx.base.selectors) violated.push_back(-y);
    ctx.viol = add_totalizer(ctx.work, violated);
  }

  SolverOptions so;
  so.max_conflicts = opt.max_conflicts;
  so.deadline_ns = opt.deadline_ns;
  so.cancel = opt.cancel;

  const int m = cs.size();
  auto check_cancel = [&] {
    if (opt.cancel && opt.cancel->cancelled()) throw CancelledError();
  };

  SatExactResult res;
  int found = -1;  ///< best target with a confirmed model
  bool unknown_above = false;
  Encoding model;  ///< the latest model any call found
  /// `model` came from a fresh solver's first call, at target `found`.
  bool canonical = false;
  auto solve_at = [&](Solver& solver, int target) {
    check_cancel();
    SolveStatus st = solver.solve(target_assumptions(ctx, target));
    ++res.solver_calls;
    if (st == SolveStatus::kSat) model = decode_model(ctx.base, solver);
    return st;
  };

  // Descending search on ONE incremental solver driven through every
  // target by assumptions (refutation clauses learned at target t carry
  // to t-1): the first satisfiable at-least-t target is the maximum,
  // provided every higher target was refuted (not timed out).
  //
  // Bailout: when the optimum sits far below m (tbk: 25 of 106), a
  // strict descent would burn the full conflict budget on dozens of
  // undecidable targets.  After kBailoutUnknowns consecutive kUnknown
  // verdicts the sweep flips to ascending solution-improving search —
  // solve unconstrained, then repeatedly demand one more constraint than
  // the current model satisfies.  SAT calls are the cheap direction, and
  // each model's actual count can jump the target up by more than one.
  // The result is unproven either way (unknown_above is already set by
  // then).
  constexpr int kBailoutUnknowns = 3;
  {
    // Scoped: the descent's learned clauses are freed before the
    // canonical re-solve builds its own solver.
    Solver descent(ctx.work, so);
    int consecutive_unknown = 0;
    for (int target = m; target >= 0; --target) {
      SolveStatus st = solve_at(descent, target);
      if (st == SolveStatus::kSat) {
        found = target;
        canonical = target == m;
        break;
      }
      if (st == SolveStatus::kUnknown) {
        unknown_above = true;
        if (++consecutive_unknown >= kBailoutUnknowns && target > 0) {
          // The climb runs on a dedicated fresh solver: the descent's
          // accumulated activity and saved phases are tuned for refuting
          // high targets and demonstrably mislead the satisfiable
          // direction (a fresh solver finds the t=0 model in a handful of
          // conflicts where the descent solver exhausts its budget).
          const int ceiling = target - 1;  // nothing below was refuted
          Solver climb(ctx.work, so);
          if (solve_at(climb, 0) == SolveStatus::kSat) {
            found = count_satisfied_constraints(cs, model);
            while (found < ceiling &&
                   solve_at(climb, found + 1) == SolveStatus::kSat)
              found = std::max(found + 1,
                               count_satisfied_constraints(cs, model));
          }
          accumulate(&res.stats, climb.stats());
          break;
        }
      } else {
        consecutive_unknown = 0;
      }
    }
    accumulate(&res.stats, descent.stats());
  }

  if (found < 0) {
    // Even plain distinctness failed: no nv-bit encoding exists (or the
    // budget ran out everywhere).
    res.proven = !unknown_above;
    PICOLA_OBS_COUNT("sat/exact_infeasible", 1);
    return res;
  }

  // Canonical model: re-solve (work, found) on a FRESH solver so the
  // reported encoding is a pure function of the formula and the target,
  // whatever learned-clause state the sweep accumulated.  If the fresh
  // solver hits the per-call budget on a query the sweep already
  // answered, the sweep's model stands.  When the descent's first call
  // was satisfiable, its solver was just as fresh and saw the same
  // formula and assumptions, so the re-solve would repeat it call for
  // call: that model already is the canonical one.
  if (!canonical) {
    Solver canon(ctx.work, so);
    solve_at(canon, found);
    accumulate(&res.stats, canon.stats());
  }
  res.encoding = std::move(model);
  res.feasible = true;
  res.satisfied = count_satisfied_constraints(cs, res.encoding);
  res.proven = !unknown_above && res.satisfied == found;
  PICOLA_OBS_COUNT("sat/exact_feasible", 1);
  return res;
}

}  // namespace picola::sat
