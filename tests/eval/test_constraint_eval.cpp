#include <gtest/gtest.h>

#include <random>
#include <string>

#include "base/problem_io.h"
#include "check/reference_eval.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "core/theorem1.h"
#include "encoders/trivial.h"
#include "eval/constraint_eval.h"
#include "eval/metrics.h"
#include "kiss/benchmarks.h"
#include "obs/obs.h"

namespace picola {
namespace {

TEST(ConstraintEval, SatisfiedConstraintCostsOneCube) {
  Encoding e = sequential_encoding(4);
  FaceConstraint c;
  c.members = {0, 1};  // face 0-
  EXPECT_EQ(constraint_cube_count(c, e), 1);
}

TEST(ConstraintEval, ViolatedConstraintCostsMore) {
  Encoding e = sequential_encoding(4);
  FaceConstraint c;
  c.members = {0, 3};  // codes 00 and 11: two cubes needed
  EXPECT_EQ(constraint_cube_count(c, e), 2);
}

TEST(ConstraintEval, UnusedCodesAreDontCares) {
  // 3 symbols on 2 bits: codes 00, 01, 10; constraint {0,2} = {00,10}.
  // The offset is only 01; cube -0 covers {00,10} and the unused 11.
  Encoding e = sequential_encoding(3);
  FaceConstraint c;
  c.members = {0, 2};
  EXPECT_EQ(constraint_cube_count(c, e), 1);
}

TEST(ConstraintEval, TotalsAndSatisfiedCount) {
  Encoding e = sequential_encoding(4);
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});  // 1 cube
  cs.add({0, 3});  // 2 cubes
  ConstraintEvalResult r = evaluate_constraints(cs, e);
  EXPECT_EQ(r.total_cubes, 3);
  EXPECT_EQ(r.satisfied, 1);
  EXPECT_EQ(r.per_constraint, (std::vector<int>{1, 2}));
}

TEST(ConstraintEval, AgreesWithTheorem1WhenApplicable) {
  std::mt19937_64 rng(123);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    int n = 6 + static_cast<int>(rng() % 6);
    Encoding e = random_encoding(n, rng());
    FaceConstraint c;
    for (int s = 0; s < n; ++s)
      if (rng() % 2) c.members.push_back(s);
    if (static_cast<int>(c.members.size()) < 2 ||
        static_cast<int>(c.members.size()) >= n)
      continue;
    auto t1 = theorem1_cube_count(c, e);
    if (!t1) continue;
    ++checked;
    // Espresso may still beat the constructive count, never the reverse
    // being unsound: the minimised cover is a correct implementation, so
    // its size is at most the constructive one.
    EXPECT_LE(constraint_cube_count(c, e), *t1);
  }
  EXPECT_GT(checked, 20);
}

TEST(ConstraintEval, KernelMatchesReferenceOnTableOneRestarts) {
  // Counts, totals, satisfied count and covers of every Table I set under
  // the four restart encodings a default job scores.
  for (const std::string& name : table1_benchmarks()) {
    ConstraintSet cs = derive_face_constraints(make_benchmark(name)).set;
    for (int r = 0; r < 4; ++r) {
      Encoding e = picola_encode(cs, picola_restart_options({}, r)).encoding;
      EXPECT_EQ(check::eval_mismatch(cs, e), "") << name << " restart " << r;
    }
  }
}

TEST(ConstraintEval, KernelMatchesReferenceOnRandomCodes) {
  // Random codes leave most constraints with an intruder, so this runs
  // the ESPRESSO path far more often than the encoders' codes do.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    int n = 3 + static_cast<int>(rng() % 14);
    ConstraintSet cs;
    cs.num_symbols = n;
    for (int k = 0; k < 6; ++k) {
      std::vector<int> members;
      for (int s = 0; s < n; ++s)
        if (rng() % 3 == 0) members.push_back(s);
      cs.add(members);
    }
    int nv = Encoding::min_bits(n) + static_cast<int>(rng() % 3);
    Encoding e = random_encoding(n, rng(), nv);
    EXPECT_EQ(check::eval_mismatch(cs, e), "") << "trial " << trial;
  }
}

TEST(ConstraintEval, LongCodesScoreWithoutEspresso) {
  // Fig. 1 at 20 bits: PICOLA satisfies all four constraints, so none is
  // minimised and no cover of the ~10^6 unused codes is built.
  std::string error;
  auto p = load_problem_file(
      std::string(PICOLA_EXAMPLES_DIR) + "/paper_fig1.con", &error);
  ASSERT_TRUE(p) << error;
  PicolaOptions opt;
  opt.num_bits = 20;
  Encoding e = picola_encode(p->set, opt).encoding;
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  obs::set_enabled(true);
  ConstraintEvalResult r = evaluate_constraints(p->set, e);
  obs::set_enabled(false);
  EXPECT_EQ(r.total_cubes, 4);
  EXPECT_EQ(r.satisfied, 4);
#ifndef PICOLA_OBS_DISABLED
  EXPECT_EQ(reg.counter("eval/constraints").value(), 4u);
  EXPECT_EQ(reg.counter("eval/espresso_fallbacks").value(), 0u);
#endif
  reg.reset();
}

TEST(Metrics, EncodingQualitySummarises) {
  Encoding e = sequential_encoding(4);
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});
  cs.add({0, 3});
  EncodingQuality q = encoding_quality(cs, e);
  EXPECT_EQ(q.satisfied_constraints, 1);
  EXPECT_EQ(q.total_dichotomies, 4);
  EXPECT_EQ(q.satisfied_dichotomies, 2);
}

TEST(Metrics, StopwatchAdvances) {
  Stopwatch sw;
  volatile long x = 0;
  for (long i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(sw.elapsed_ms(), 0.0);
  EXPECT_EQ(format_ratio(1.234), "1.23");
}

}  // namespace
}  // namespace picola
