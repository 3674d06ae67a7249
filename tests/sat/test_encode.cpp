// The SAT reduction against the exhaustive small-instance oracle: on
// every n <= 8 instance the exact backend must find an encoding
// achieving the oracle's maximum simultaneously-satisfied constraint
// count (and prove it), and must prove infeasibility below the minimum
// code length.

#include <gtest/gtest.h>

#include "check/instance_gen.h"
#include "check/oracle.h"
#include "check/verifier.h"
#include "constraints/dichotomy.h"
#include "encoders/encoding.h"
#include "sat/dimacs.h"
#include "sat/encode.h"

namespace picola::sat {
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

TEST(FaceCnf, ModelDecodesToValidEncoding) {
  ConstraintSet cs = demo_set();
  FaceCnf fc = build_face_cnf(cs, 3);
  ASSERT_EQ(fc.cnf.validate(), "");
  Solver solver(fc.cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  Encoding enc = decode_model(fc, solver);
  EXPECT_EQ(enc.validate(), "");
  EXPECT_EQ(enc.code(0), 0u) << "symbol 0 must be pinned to code 0";
  // Hard clauses: every constraint satisfied.
  EXPECT_EQ(count_satisfied_constraints(cs, enc), cs.size());
}

TEST(FaceCnf, RejectsBadArguments) {
  ConstraintSet cs = demo_set();
  EXPECT_THROW(build_face_cnf(cs, 0), std::invalid_argument);
  EXPECT_THROW(build_face_cnf(cs, 21), std::invalid_argument);
  ConstraintSet bad;
  bad.num_symbols = 1;
  EXPECT_THROW(build_face_cnf(bad, 3), std::invalid_argument);
}

TEST(FaceCnf, DimacsRoundTripReproducesVerdict) {
  ConstraintSet cs = demo_set();
  for (int nv : {3, 2}) {  // 2 bits: 6 symbols cannot even be distinct
    FaceCnf fc = build_face_cnf(cs, nv);
    std::string text = write_dimacs(fc.cnf, {"picola face reduction"});
    DimacsParseResult parsed = parse_dimacs(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    Solver in_tree(fc.cnf);
    Solver round_trip(parsed.cnf);
    EXPECT_EQ(in_tree.solve(), round_trip.solve()) << "nv=" << nv;
  }
}

TEST(SatExact, ProvesInfeasibilityBelowMinimumLength) {
  ConstraintSet cs = demo_set();  // 6 symbols: needs 3 bits
  SatExactOptions opt;
  opt.num_bits = 2;
  SatExactResult res = sat_exact_encode(cs, opt);
  EXPECT_FALSE(res.feasible);
  EXPECT_TRUE(res.proven);
  EXPECT_EQ(res.satisfied, 0);
}

TEST(SatExact, MatchesOracleOnGeneratedInstances) {
  check::GeneratorOptions gopt;
  gopt.min_symbols = 3;
  gopt.max_symbols = 8;
  gopt.max_extra_bits = 0;  // minimum length, where the oracle is exact
  check::InstanceGenerator gen(20260808, gopt);
  int checked = 0;
  while (checked < 25) {
    check::InstanceGenerator::Instance inst = gen.next();
    if (inst.set.num_symbols > 8 || inst.set.size() > 8) continue;
    check::OracleResult truth = check::oracle_solve(inst.set);

    SatExactOptions opt;
    SatExactResult res = sat_exact_encode(inst.set, opt);
    ASSERT_TRUE(res.feasible)
        << inst.family << "#" << inst.index << ": " << inst.set.to_string();
    ASSERT_TRUE(res.proven)
        << inst.family << "#" << inst.index << " exhausted its budget";
    EXPECT_EQ(res.satisfied, truth.max_satisfied)
        << inst.family << "#" << inst.index << ": " << inst.set.to_string();
    check::VerifyReport report =
        check::verify_encoding(inst.set, res.encoding);
    EXPECT_TRUE(report.ok()) << report.to_string();
    ++checked;
  }
}

TEST(FaceCnf, DifferenceScalesWhereIndicatorGuardTrips) {
  // 40 symbols at 14 bits: a code-indicator formulation would need
  // 40 * 2^14 indicator variables (past the size guard the removed
  // indicator encoding had); the difference encoding is O(n^2 * nv) and
  // sails through.
  ConstraintSet cs;
  cs.num_symbols = 40;
  cs.add({0, 1, 2});
  cs.add({3, 4});
  FaceCnf fc = build_face_cnf(cs, 14);
  ASSERT_EQ(fc.cnf.validate(), "");
  EXPECT_LT(fc.cnf.num_vars, 40 * (1 << 14));
  Solver solver(fc.cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
}

TEST(SatExact, DeterministicAcrossRuns) {
  ConstraintSet cs = demo_set();
  SatExactResult a = sat_exact_encode(cs);
  SatExactResult b = sat_exact_encode(cs);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_EQ(a.encoding.codes, b.encoding.codes);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
}

TEST(SatExact, CancelledTokenThrows) {
  auto token = std::make_shared<CancelToken>();
  token->cancel();
  SatExactOptions opt;
  opt.cancel = token;
  EXPECT_THROW(sat_exact_encode(demo_set(), opt), CancelledError);
}

TEST(SatExact, TinyBudgetReportsUnproven) {
  check::GeneratorOptions gopt;
  gopt.min_symbols = 8;
  gopt.max_symbols = 8;
  gopt.max_constraints = 6;
  check::InstanceGenerator gen(7, gopt);
  check::InstanceGenerator::Instance inst = gen.next();
  SatExactOptions opt;
  opt.max_conflicts = 1;
  SatExactResult res = sat_exact_encode(inst.set, opt);
  // With a one-conflict budget the search cannot refute anything hard:
  // whatever it returns must not claim a proof unless no call hit the
  // budget (possible only if every step finished within one conflict).
  if (res.feasible && res.proven) {
    EXPECT_EQ(res.satisfied, inst.set.size());
  }
}

}  // namespace
}  // namespace picola::sat
