// Per-backend comparison of the encoder portfolio (src/portfolio).
//
// Workload: the FULL Table I input-encoding suite (IWLS'93-profile
// reconstructions — including the big instances: tbk at 106
// constraints, planet at 48 states, scf at 121) plus deterministic
// adversarial instances from every generator family
// (check/instance_gen.h: random, nested, packing, overlap).  The old
// n <= 32 cap is gone: the difference distinctness encoding is
// polynomial in n and the at-least-t sweep is incremental, so the sat
// column finishes in seconds even on scf.  Every problem runs through
// each portfolio backend alone — picola and sat_exact
// (conflict-budgeted) — and through the portfolio; the table and
// BENCH_portfolio.json record per-backend wall time, cube counts, code
// length, win rates, and the result of the never-worse-than-picola
// gate.  The annealer is not a portfolio slot; encoder_comparison keeps
// it as the paper baseline.
//
// Flags:
//   --table1-full   Table I suite only (skip the generator families) —
//                   the CI smoke configuration.
//   --timeout-ms N  per backend-run watchdog: cancels the run through
//                   the cooperative CancelToken after N ms and scores
//                   it "t/o" (0 = no watchdog, the default).
//
// The gate is the bench's pass/fail: on every problem where both
// finished, the portfolio's cube count must be <= picola-alone's (the
// portfolio plan runs the picola slots first with identical seeds, so
// anything else is a reduction bug).  Exit code 1 on violation.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/instance_gen.h"
#include "constraints/derive.h"
#include "eval/metrics.h"
#include "kiss/benchmarks.h"
#include "portfolio/portfolio.h"

using namespace picola;

namespace {

constexpr int kRestarts = 4;
/// Conflict budget of the sat backend slots: deterministic and small
/// enough that big Table I instances stay in bench-scale time (tbk, the
/// hardest, answers identically at 2k and 5k conflicts per call).
constexpr long kSatConflicts = 2'000;

struct Problem {
  std::string name;
  ConstraintSet set;
};

std::vector<Problem> make_workload(bool table1_only) {
  std::vector<Problem> problems;
  for (const std::string& name : table1_benchmarks()) {
    Problem p;
    p.name = name;
    p.set = derive_face_constraints(make_benchmark(name)).set;
    if (p.set.num_symbols < 2 || p.set.size() == 0) continue;
    problems.push_back(std::move(p));
  }
  if (table1_only) return problems;
  // Three instances per adversarial family, deterministic stream.
  check::GeneratorOptions g;
  g.min_symbols = 8;
  g.max_symbols = 14;
  g.max_constraints = 8;
  g.max_extra_bits = 0;
  check::InstanceGenerator gen(20260808, g);
  for (int i = 0; i < 12; ++i) {
    auto inst = gen.next();
    Problem p;
    p.name = inst.family + "#" + std::to_string(inst.index);
    p.set = std::move(inst.set);
    problems.push_back(std::move(p));
  }
  return problems;
}

struct BackendRun {
  double ms = 0;
  long cubes = -1;  ///< -1 = no encoding produced
  int bits = 0;
  bool ok = false;
  bool timed_out = false;  ///< the --timeout-ms watchdog fired
};

struct Row {
  std::string name;
  int n = 0;
  BackendRun runs[3];  ///< indexed like kBackends
  portfolio::BackendKind winner = portfolio::BackendKind::kPicola;
};

constexpr portfolio::BackendKind kBackends[3] = {
    portfolio::BackendKind::kPicola, portfolio::BackendKind::kSat,
    portfolio::BackendKind::kPortfolio};

BackendRun run_backend(const ConstraintSet& cs, portfolio::BackendKind kind,
                       long timeout_ms) {
  BackendRun r;
  portfolio::PortfolioOptions fopt;
  fopt.backend = kind;
  fopt.sat_max_conflicts = kSatConflicts;
  PicolaOptions popt;
  auto token = std::make_shared<CancelToken>();
  popt.cancel = token;

  std::mutex mu;
  std::condition_variable cv;
  bool run_done = false;
  std::thread watchdog;
  if (timeout_ms > 0)
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return run_done; }))
        token->cancel();
    });

  Stopwatch sw;
  try {
    portfolio::PortfolioResult res =
        portfolio::portfolio_encode(cs, kRestarts, popt, fopt);
    r.cubes = res.total_cubes;
    r.bits = res.picola.encoding.num_bits;
    r.ok = true;
  } catch (const CancelledError&) {
    r.timed_out = true;
  } catch (const std::exception&) {
    // e.g. the sat backend alone exhausting its conflict budget — a
    // legitimate outcome, scored as "no result".
  }
  r.ms = sw.elapsed_ms();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      run_done = true;
    }
    cv.notify_all();
    watchdog.join();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool table1_only = false;
  long timeout_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table1-full") == 0) {
      table1_only = true;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = std::atol(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: portfolio_bench [--table1-full] [--timeout-ms N]\n");
      return 2;
    }
  }

  std::vector<Problem> problems = make_workload(table1_only);
  std::vector<Row> rows;
  int wins[2] = {0, 0};
  int gate_violations = 0;

  std::printf("portfolio bench: %zu problems, %d restarts, sat budget %ld "
              "conflicts%s\n\n",
              problems.size(), kRestarts, kSatConflicts,
              table1_only ? ", Table I only" : "");
  std::printf("%-12s %4s | %9s %9s %9s | %6s\n", "problem", "n",
              "picola", "sat", "portfolio", "winner");
  std::printf("%.*s\n", 68,
              "------------------------------------------------------------"
              "------------------");

  for (const Problem& p : problems) {
    Row row;
    row.name = p.name;
    row.n = p.set.num_symbols;
    for (int b = 0; b < 3; ++b)
      row.runs[b] = run_backend(p.set, kBackends[b], timeout_ms);

    // The portfolio's winning backend, re-derived from the single-backend
    // cube counts with the plan-order tie-break (picola, then sat).
    const BackendRun& port = row.runs[2];
    row.winner = portfolio::BackendKind::kPicola;
    for (int b = 0; b < 2; ++b)
      if (row.runs[b].ok && port.ok && row.runs[b].cubes == port.cubes) {
        row.winner = kBackends[b];
        break;
      }
    for (int b = 0; b < 2; ++b)
      if (kBackends[b] == row.winner) ++wins[b];

    const BackendRun& alone = row.runs[0];
    if (alone.ok && port.ok && port.cubes > alone.cubes) {
      ++gate_violations;
      std::printf("GATE VIOLATION: %s portfolio %ld cubes > picola %ld\n",
                  p.name.c_str(), port.cubes, alone.cubes);
    }

    auto cell = [](const BackendRun& r, char* buf, size_t len) {
      if (r.ok)
        std::snprintf(buf, len, "%ld/%.0fms", r.cubes, r.ms);
      else
        std::snprintf(buf, len, "%s/%.0fms", r.timed_out ? "t/o" : "-", r.ms);
    };
    char c0[32], c1[32], c2[32];
    cell(row.runs[0], c0, sizeof c0);
    cell(row.runs[1], c1, sizeof c1);
    cell(row.runs[2], c2, sizeof c2);
    std::printf("%-12s %4d | %9s %9s %9s | %6s\n", p.name.c_str(), row.n, c0,
                c1, c2, portfolio::backend_kind_name(row.winner));
    rows.push_back(std::move(row));
  }

  const double total = static_cast<double>(rows.size());
  std::printf("\nwin rate: picola %.0f%%, sat %.0f%%\n",
              100.0 * wins[0] / total, 100.0 * wins[1] / total);
  std::printf("never-worse-than-picola gate: %s\n",
              gate_violations == 0 ? "PASS" : "FAIL");

  FILE* f = std::fopen("BENCH_portfolio.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_portfolio.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\"problems\":%zu,\"restarts\":%d,\"sat_max_conflicts\":%ld,"
               "\"table1_full\":%s,\"timeout_ms\":%ld,\"rows\":[",
               rows.size(), kRestarts, kSatConflicts,
               table1_only ? "true" : "false", timeout_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "%s{\"name\":\"%s\",\"n\":%d,\"winner\":\"%s\"",
                 i ? "," : "", r.name.c_str(), r.n,
                 portfolio::backend_kind_name(r.winner));
    for (int b = 0; b < 3; ++b) {
      const BackendRun& br = r.runs[b];
      std::fprintf(f,
                   ",\"%s\":{\"ms\":%.3f,\"cubes\":%ld,\"bits\":%d,"
                   "\"feasible\":%s,\"timed_out\":%s}",
                   portfolio::backend_kind_name(kBackends[b]), br.ms, br.cubes,
                   br.bits, br.ok ? "true" : "false",
                   br.timed_out ? "true" : "false");
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f,
               "],\"win_rate\":{\"picola\":%.3f,\"sat\":%.3f},"
               "\"gate_never_worse_than_picola\":\"%s\"}\n",
               wins[0] / total, wins[1] / total,
               gate_violations == 0 ? "pass" : "fail");
  std::fclose(f);
  std::printf("wrote BENCH_portfolio.json\n");
  return gate_violations == 0 ? 0 : 1;
}
