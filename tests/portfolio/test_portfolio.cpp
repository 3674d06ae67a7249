// Portfolio front-end: plan shape, deterministic repetition, the
// structural never-worse-than-picola guarantee, per-slot degradation and
// the self-check hook on non-picola backends.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/instance_gen.h"
#include "check/oracle.h"
#include "constraints/derive.h"
#include "constraints/dichotomy.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"
#include "portfolio/portfolio.h"

namespace picola::portfolio {
namespace {

ConstraintSet demo_set() {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({0, 1, 2});
  cs.add({2, 3});
  cs.add({4, 5});
  cs.add({1, 3, 5});
  return cs;
}

TEST(Plan, ShapesPerBackend) {
  EXPECT_EQ(portfolio_plan(BackendKind::kPicola, 3).size(), 3u);
  EXPECT_EQ(portfolio_plan(BackendKind::kSat, 3).size(), 1u);
  std::vector<BackendTask> anneal = portfolio_plan(BackendKind::kAnneal, 3);
  ASSERT_EQ(anneal.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(anneal[static_cast<size_t>(r)].kind, BackendKind::kAnneal);
    EXPECT_EQ(anneal[static_cast<size_t>(r)].restart, r);
  }
  // The portfolio races the picola slots and one sat slot; the annealer
  // runs only when selected on its own.
  std::vector<BackendTask> all = portfolio_plan(BackendKind::kPortfolio, 3);
  ASSERT_EQ(all.size(), 4u);
  // picola slots first — the never-worse tie-break depends on this order.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(all[static_cast<size_t>(r)].kind, BackendKind::kPicola);
    EXPECT_EQ(all[static_cast<size_t>(r)].restart, r);
  }
  EXPECT_EQ(all[3].kind, BackendKind::kSat);
  EXPECT_EQ(portfolio_plan(BackendKind::kPicola, 0).size(), 1u);
}

TEST(Plan, BackendNamesRoundTrip) {
  for (BackendKind k : {BackendKind::kPicola, BackendKind::kSat,
                        BackendKind::kAnneal, BackendKind::kPortfolio})
    EXPECT_EQ(parse_backend_kind(backend_kind_name(k)), k);
  EXPECT_FALSE(parse_backend_kind("cplex").has_value());
}

TEST(Reduce, LowestCostThenLowestPlanIndex) {
  std::vector<BackendOutcome> outcomes(4);
  outcomes[0].feasible = true;
  outcomes[0].total_cubes = 7;
  outcomes[1].feasible = false;  // infeasible slots never win
  outcomes[1].total_cubes = 1;
  outcomes[2].feasible = true;
  outcomes[2].total_cubes = 5;
  outcomes[3].feasible = true;
  outcomes[3].total_cubes = 5;  // tie: earlier slot wins
  EXPECT_EQ(reduce_outcomes(outcomes), 2);
  EXPECT_EQ(reduce_outcomes({}), -1);
}

TEST(Portfolio, DeterministicAcrossRepeatedRuns) {
  ConstraintSet cs = demo_set();
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kPortfolio;
  PortfolioResult a = portfolio_encode(cs, 3, {}, fopt);
  PortfolioResult b = portfolio_encode(cs, 3, {}, fopt);
  EXPECT_EQ(a.picola.encoding.codes, b.picola.encoding.codes);
  EXPECT_EQ(a.total_cubes, b.total_cubes);
  EXPECT_EQ(a.backend, b.backend);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].feasible, b.outcomes[i].feasible);
    EXPECT_EQ(a.outcomes[i].total_cubes, b.outcomes[i].total_cubes);
  }
}

TEST(Portfolio, NeverWorseThanPicolaAlone) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ConstraintSet cs = demo_set();
    PicolaOptions popt;
    popt.tie_break_seed = seed;

    PortfolioOptions alone;
    alone.backend = BackendKind::kPicola;
    PortfolioResult p = portfolio_encode(cs, 2, popt, alone);

    PortfolioOptions all;
    all.backend = BackendKind::kPortfolio;
    PortfolioResult f = portfolio_encode(cs, 2, popt, all);

    EXPECT_LE(f.total_cubes, p.total_cubes) << "seed " << seed;
    // The picola slots run with identical seeds inside the portfolio.
    ASSERT_GE(f.outcomes.size(), 2u);
    EXPECT_EQ(f.outcomes[0].total_cubes, p.outcomes[0].total_cubes);
  }
}

TEST(Portfolio, SatBackendAloneIsExact) {
  ConstraintSet cs = demo_set();
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kSat;
  PortfolioResult res = portfolio_encode(cs, 1, {}, fopt);
  EXPECT_EQ(res.backend, BackendKind::kSat);
  check::OracleResult truth = check::oracle_solve(cs);
  EXPECT_EQ(res.picola.stats.satisfied_constraints, truth.max_satisfied);
}

TEST(Portfolio, SatAloneOnInfeasibleLengthThrows) {
  ConstraintSet cs = demo_set();
  PicolaOptions popt;
  popt.num_bits = 0;  // minimum (3)
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kSat;
  // Force an impossible length through a direct slot run: 6 symbols do
  // not fit in 2 bits.
  popt.num_bits = 2;
  BackendOutcome slot = run_backend_task(cs, popt, fopt,
                                         {BackendKind::kSat, 0}, nullptr);
  EXPECT_FALSE(slot.feasible);
  EXPECT_NE(slot.error.find("no encoding"), std::string::npos) << slot.error;
}

TEST(Portfolio, AnnealBackendProducesValidEncoding) {
  ConstraintSet cs = demo_set();
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kAnneal;
  PicolaOptions popt;
  popt.self_check = true;  // verify_encoding runs on the annealer output
  PortfolioResult res = portfolio_encode(cs, 2, popt, fopt);
  EXPECT_EQ(res.backend, BackendKind::kAnneal);
  EXPECT_EQ(res.picola.encoding.validate(), "");
  EXPECT_EQ(res.picola.stats.satisfied_constraints,
            count_satisfied_constraints(cs, res.picola.encoding));
}

TEST(Portfolio, CancelledTokenAbortsRun) {
  auto token = std::make_shared<CancelToken>();
  token->cancel();
  PicolaOptions popt;
  popt.cancel = token;
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kSat;
  EXPECT_THROW(portfolio_encode(demo_set(), 1, popt, fopt), CancelledError);
  fopt.backend = BackendKind::kAnneal;
  EXPECT_THROW(portfolio_encode(demo_set(), 1, popt, fopt), CancelledError);
}

TEST(Portfolio, WinnerCubesMatchIndependentEvaluation) {
  ConstraintSet cs = demo_set();
  PortfolioOptions fopt;
  fopt.backend = BackendKind::kPortfolio;
  PortfolioResult res = portfolio_encode(cs, 2, {}, fopt);
  EXPECT_EQ(res.total_cubes,
            evaluate_constraints(cs, res.picola.encoding).total_cubes);
}

/// FNV-1a over every slot's backend, feasibility, cost, code length,
/// codes and satisfied count, in plan order.
struct OutcomeHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const PortfolioResult& r) {
    mix(r.outcomes.size());
    for (const BackendOutcome& o : r.outcomes) {
      mix(static_cast<uint64_t>(o.backend));
      mix(o.feasible);
      mix(static_cast<uint64_t>(o.total_cubes));
      mix(static_cast<uint64_t>(o.result.encoding.num_bits));
      for (uint32_t c : o.result.encoding.codes) mix(c);
      mix(static_cast<uint64_t>(o.result.stats.satisfied_constraints));
    }
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Portfolio, TieFreeSlotsPinned) {
  // Every slot's outcome, recorded with every slot run and scored.  tbk
  // and the generated sets kept here are tie-free at restart 0, so each
  // picola slot holds restart 0's codes and cost; the first tied sets of
  // the stream ride along.
  OutcomeHash h;
  h.mix(portfolio_encode(derive_face_constraints(make_benchmark("tbk")).set,
                         4));
  check::GeneratorOptions g;
  g.min_symbols = 8;
  g.max_symbols = 12;
  g.max_constraints = 40;
  check::InstanceGenerator gen(20261019, g);
  int tie_free = 0, tied = 0;
  while (tie_free < 6 || tied < 2) {
    check::InstanceGenerator::Instance inst = gen.next();
    PicolaOptions popt;
    popt.num_bits = inst.num_bits;
    const bool free = picola_encode(inst.set, popt).stats.tie_free;
    if (free ? tie_free++ >= 6 : tied++ >= 2) continue;
    h.mix(portfolio_encode(inst.set, 4, popt));
    PortfolioOptions fopt;
    fopt.backend = BackendKind::kPortfolio;
    fopt.sat_max_conflicts = 100;  // the sat slot is not what is pinned
    h.mix(portfolio_encode(inst.set, 3, popt, fopt));
  }
  EXPECT_EQ(hex(h.h), "0x89e4b7abef44c6d5");
}

}  // namespace
}  // namespace picola::portfolio
