#include <gtest/gtest.h>

#include "check/reference_column.h"
#include "check/verifier.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "kiss/benchmarks.h"
#include "obs/metrics.h"

namespace picola {
namespace {

ConstraintSet paper_constraints() {
  ConstraintSet cs;
  cs.num_symbols = 15;
  cs.add({1, 5, 7, 13});
  cs.add({0, 1});
  cs.add({8, 13});
  cs.add({5, 6, 7, 8, 13});
  return cs;
}

TEST(Verifier, CleanEncodingPasses) {
  ConstraintSet cs = paper_constraints();
  PicolaResult r = picola_encode(cs);
  check::VerifyReport rep = check::verify_encoding(cs, r.encoding);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verifier, SelfCheckOptionIsBehaviourPreserving) {
  ConstraintSet cs = paper_constraints();
  PicolaOptions off;
  PicolaOptions on;
  on.self_check = true;
  Encoding plain = picola_encode(cs, off).encoding;
  Encoding checked;
  EXPECT_NO_THROW(checked = picola_encode(cs, on).encoding);
  EXPECT_EQ(plain.codes, checked.codes);
}

TEST(Verifier, RejectsDuplicateCodes) {
  ConstraintSet cs;
  cs.num_symbols = 3;
  cs.add({0, 1});
  Encoding enc;
  enc.num_symbols = 3;
  enc.num_bits = 2;
  enc.codes = {0, 1, 1};
  check::VerifyReport rep = check::verify_encoding(cs, enc);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("encoding"), std::string::npos);
}

TEST(Verifier, RejectsMalformedConstraintSet) {
  ConstraintSet cs;
  cs.num_symbols = 3;
  FaceConstraint c;
  c.members = {1, 0};  // unsorted: bypassed add()
  cs.constraints.push_back(c);
  Encoding enc;
  enc.num_symbols = 3;
  enc.num_bits = 2;
  enc.codes = {0, 1, 2};
  EXPECT_FALSE(check::verify_encoding(cs, enc).ok());
}

TEST(Verifier, ColumnCapacityViolationDetected) {
  // 8 symbols all keeping bit 1 in column 0 of B^3: the single prefix
  // group puts 8 on one side of a capacity-4 split.
  std::vector<int> bits(8, 1);
  std::vector<uint32_t> prefixes(8, 0);
  check::VerifyReport rep = check::verify_column(bits, prefixes, 0, 3);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("capacity"), std::string::npos);
}

TEST(Verifier, BalancedColumnPasses) {
  std::vector<int> bits = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<uint32_t> prefixes(8, 0);
  EXPECT_TRUE(check::verify_column(bits, prefixes, 0, 3).ok());
}

TEST(Verifier, NonBinaryBitDetected) {
  std::vector<int> bits = {0, 2};
  std::vector<uint32_t> prefixes(2, 0);
  EXPECT_FALSE(check::verify_column(bits, prefixes, 0, 1).ok());
}

TEST(Verifier, RunReplayCatchesMismatchedEncoding) {
  // Record the columns of one encoding into the matrix, then hand the
  // verifier a different encoding: the replayed entries cannot match.
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});
  ConstraintMatrix m(cs, 2);
  m.record_column({0, 0, 1, 1});
  m.record_column({0, 1, 0, 1});
  Encoding other;
  other.num_symbols = 4;
  other.num_bits = 2;
  other.codes = {3, 2, 1, 0};
  EXPECT_FALSE(check::verify_run(cs, m, other).ok());
}

TEST(Verifier, RunReplayPassesOnMatchingState) {
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});
  ConstraintMatrix m(cs, 2);
  m.record_column({0, 0, 1, 1});
  m.record_column({0, 1, 0, 1});
  Encoding enc;
  enc.num_symbols = 4;
  enc.num_bits = 2;
  enc.codes = {0, 2, 1, 3};  // LSB-first: column 0 = 0,0,1,1
  check::VerifyReport rep = check::verify_run(cs, m, enc);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verifier, EnforceThrowsAndCounts) {
  auto& reg = obs::MetricsRegistry::global();
  uint64_t before = reg.counter("check/violations").value();
  check::VerifyReport rep;
  rep.add("synthetic violation");
  EXPECT_THROW(check::enforce(rep, "test_phase"), check::SelfCheckError);
  EXPECT_EQ(reg.counter("check/violations").value(), before + 1);
  EXPECT_GE(reg.counter("check/test_phase_violations").value(), uint64_t{1});
  EXPECT_NO_THROW(check::enforce(check::VerifyReport{}, "test_phase"));
}

TEST(Verifier, ColumnReferenceNamesTheFirstDifferingSymbol) {
  ConstraintSet cs = paper_constraints();
  ConstraintMatrix m(cs, 4);
  std::vector<uint32_t> prefixes(15, 0);
  PicolaOptions opt;
  std::vector<int> bits = detail::solve_column(m, prefixes, 0, opt);
  EXPECT_TRUE(
      check::verify_column_reference(bits, m, prefixes, 0, opt).ok());
  bits[6] ^= 1;
  bits[9] ^= 1;
  check::VerifyReport rep =
      check::verify_column_reference(bits, m, prefixes, 0, opt);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("symbol 6 "), std::string::npos)
      << rep.to_string();
}

TEST(Verifier, SelfCheckHoldsEveryColumnToTheReferenceOnTableOne) {
  // Under self_check picola_encode diffs every Solve() column against
  // check::reference_solve_column and counts a mismatch in
  // check/column_reference_violations before throwing.
  auto& mismatches = obs::MetricsRegistry::global().counter(
      "check/column_reference_violations");
  const uint64_t before = mismatches.value();
  for (const std::string& name : table1_benchmarks()) {
    ConstraintSet cs = derive_face_constraints(make_benchmark(name)).set;
    for (int r = 0; r < 4; ++r) {
      PicolaOptions opt = picola_restart_options({}, r);
      opt.self_check = true;
      EXPECT_NO_THROW(picola_encode(cs, opt)) << name << " restart " << r;
    }
  }
  EXPECT_EQ(mismatches.value(), before);
}

}  // namespace
}  // namespace picola
