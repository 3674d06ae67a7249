#include <gtest/gtest.h>

#include "constraints/derive.h"
#include "espresso/espresso.h"
#include "kiss/benchmarks.h"

namespace picola {
namespace {

// The paper's Figure 1 function: two binary inputs, a 15-valued symbolic
// input, one output.  The minimised symbolic representation (Fig. 1b) is
//   00 {s2,s6,s8,s14} 1   (L1)
//   11 {s1,s2} 1          (L2)
//   01 {s9,s14} 1         (L3)
//   10 {s6,s7,s8,s9,s14} 1 (L4)
// Symbols s1..s15 are ids 0..14.
Cover figure1_onset(const CubeSpace& s) {
  struct Row {
    int i0, i1;
    std::vector<int> states;
  };
  const std::vector<Row> rows = {
      {0, 0, {1, 5, 7, 13}},
      {1, 1, {0, 1}},
      {0, 1, {8, 13}},
      {1, 0, {5, 6, 7, 8, 13}},
  };
  Cover f(s);
  // One cube per (input, state) pair: the unminimised personality.
  for (const auto& r : rows) {
    for (int st : r.states) {
      Cube c = Cube::full(s);
      c.set_binary(s, 0, r.i0);
      c.set_binary(s, 1, r.i1);
      c.clear_var(s, 2);
      c.set(s, 2, st);
      c.clear_var(s, 3);
      c.set(s, 3, 0);
      f.add(c);
    }
  }
  return f;
}

TEST(Derive, Figure1MinimisesToFourGroupCubes) {
  CubeSpace s = CubeSpace::fsm_layout(2, 15, 1);
  Cover onset = figure1_onset(s);
  Cover m = esp::minimize_cover(onset, Cover(s));
  EXPECT_EQ(m.size(), 4);
  ConstraintSet cs = extract_constraints(m, 15, s.mv_var());
  ASSERT_EQ(cs.size(), 4);
  // The four groups of Fig. 1b, in some order.
  std::vector<std::vector<int>> expected = {
      {1, 5, 7, 13}, {0, 1}, {8, 13}, {5, 6, 7, 8, 13}};
  for (const auto& want : expected) {
    bool found = false;
    for (const auto& c : cs.constraints)
      if (c.members == want) found = true;
    EXPECT_TRUE(found) << "missing constraint";
  }
}

TEST(Derive, ExtractSkipsSingletonsAndFullLiterals) {
  CubeSpace s = CubeSpace::fsm_layout(0, 4, 1);
  Cover m(s);
  Cube a = Cube::full(s);  // full state literal: no constraint
  m.add(a);
  Cube b = Cube::full(s);
  b.clear_var(s, 0);
  b.set(s, 0, 2);  // singleton
  m.add(b);
  Cube c = Cube::full(s);
  c.clear_var(s, 0);
  c.set(s, 0, 0);
  c.set(s, 0, 1);  // proper group
  m.add(c);
  ConstraintSet cs = extract_constraints(m, 4, 0);
  ASSERT_EQ(cs.size(), 1);
  EXPECT_EQ(cs.constraints[0].members, (std::vector<int>{0, 1}));
}

TEST(Derive, SymbolicCoverDimensions) {
  Fsm f = make_example_fsm("vending");
  Cover onset, dc;
  build_symbolic_cover(f, &onset, &dc);
  const CubeSpace& s = onset.space();
  EXPECT_EQ(s.num_vars(), f.num_inputs + 2);
  EXPECT_EQ(s.parts(s.mv_var()), f.num_states());
  EXPECT_EQ(s.parts(s.output_var()), f.num_states() + f.num_outputs);
  // Every transition with a next state or a '1' output appears.
  EXPECT_EQ(onset.size(), static_cast<int>(f.transitions.size()));
}

class DeriveExamples : public ::testing::TestWithParam<std::string> {};

TEST_P(DeriveExamples, ProducesConsistentConstraints) {
  Fsm f = GetParam().substr(0, 3) == "ex:" ? make_example_fsm(GetParam().substr(3))
                                           : make_benchmark(GetParam());
  DerivedConstraints d = derive_face_constraints(f);
  // Minimisation must not lose the function.
  EXPECT_TRUE(esp::equivalent(d.minimized, d.symbolic_onset, d.symbolic_dc));
  // It must do no worse than the unminimised cover.
  EXPECT_LE(d.minimized.size(), d.symbolic_onset.size());
  // All constraint members are valid state ids.
  for (const auto& c : d.set.constraints) {
    EXPECT_GE(c.size(), 2);
    EXPECT_LT(c.size(), f.num_states());
    for (int m : c.members) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, f.num_states());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, DeriveExamples,
                         ::testing::Values("ex:traffic", "ex:elevator",
                                           "ex:vending", "lion9", "train11",
                                           "ex3", "dk14", "opus"));

}  // namespace
}  // namespace picola
