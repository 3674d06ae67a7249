#include <gtest/gtest.h>

#include "constraints/constraint_io.h"

namespace picola {
namespace {

TEST(ConstraintIo, ParsesAnonymousProblem) {
  ConstraintParseResult r = parse_constraints(
      "# paper example\n.n 15\n1 5 7 13\n0 1\n8 13\n5 6 7 8 13\n.e\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.set.num_symbols, 15);
  EXPECT_EQ(r.set.size(), 4);
  EXPECT_TRUE(r.symbol_names.empty());
  EXPECT_EQ(r.set.constraints[3].members, (std::vector<int>{5, 6, 7, 8, 13}));
}

TEST(ConstraintIo, ParsesNamedProblemWithWeights) {
  ConstraintParseResult r = parse_constraints(
      ".names idle run halt wait\nidle run * 2.5\nhalt wait\n.e\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.set.num_symbols, 4);
  ASSERT_EQ(r.set.size(), 2);
  EXPECT_DOUBLE_EQ(r.set.constraints[0].weight, 2.5);
  EXPECT_EQ(r.set.constraints[0].members, (std::vector<int>{0, 1}));
}

TEST(ConstraintIo, RoundTrip) {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({0, 2, 4}, 3.0);
  cs.add({1, 5});
  std::string text = write_constraints(cs);
  ConstraintParseResult r = parse_constraints(text);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.set.num_symbols, 6);
  ASSERT_EQ(r.set.size(), 2);
  EXPECT_EQ(r.set.constraints[0].members, cs.constraints[0].members);
  EXPECT_DOUBLE_EQ(r.set.constraints[0].weight, 3.0);
}

TEST(ConstraintIo, NamedRoundTrip) {
  ConstraintSet cs;
  cs.num_symbols = 3;
  cs.add({0, 1});
  std::vector<std::string> names = {"a", "b", "c"};
  ConstraintParseResult r = parse_constraints(write_constraints(cs, names));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.symbol_names, names);
  EXPECT_EQ(r.set.constraints[0].members, (std::vector<int>{0, 1}));
}

TEST(ConstraintIo, Errors) {
  EXPECT_FALSE(parse_constraints("0 1\n").ok());              // before .n
  EXPECT_FALSE(parse_constraints(".n 1\n.e\n").ok());         // too few
  EXPECT_FALSE(parse_constraints(".n 4\n0 9\n.e\n").ok());    // out of range
  EXPECT_FALSE(parse_constraints(".n 4\n0 x\n.e\n").ok());    // unknown name
  EXPECT_FALSE(parse_constraints(".n 4\n0 1 * z\n.e\n").ok()); // bad weight
  EXPECT_FALSE(parse_constraints(".foo\n").ok());             // bad directive
  // A count after a row would change the range the row was checked in.
  EXPECT_FALSE(parse_constraints(".n 15\n1 5 7 13\n.n 8\n.e\n").ok());
  EXPECT_FALSE(parse_constraints(".n 4\n0 1\n.names a b\n.e\n").ok());
  EXPECT_FALSE(parse_constraints("").ok());                   // empty
}

TEST(ConstraintIo, SingletonConstraintsAreRejected) {
  // A one-symbol group imposes nothing; instead of silently dropping it
  // (pre-validation behaviour) the parser now reports the line.
  ConstraintParseResult r = parse_constraints(".n 4\n2\n0 1\n.e\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("at least 2"), std::string::npos) << r.error;
}

TEST(ConstraintIo, DuplicateMembersAreRejected) {
  ConstraintParseResult r = parse_constraints(".n 4\n0 1 0\n.e\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("duplicate member"), std::string::npos) << r.error;
}

TEST(ConstraintIo, NonPositiveOrNonFiniteWeightsAreRejected) {
  EXPECT_FALSE(parse_constraints(".n 4\n0 1 * 0\n.e\n").ok());
  EXPECT_FALSE(parse_constraints(".n 4\n0 1 * -2.5\n.e\n").ok());
  EXPECT_FALSE(parse_constraints(".n 4\n0 1 * inf\n.e\n").ok());
  EXPECT_FALSE(parse_constraints(".n 4\n0 1 * nan\n.e\n").ok());
  EXPECT_TRUE(parse_constraints(".n 4\n0 1 * 0.25\n.e\n").ok());
}

TEST(ConstraintIo, ParsedSetsAlwaysValidate) {
  ConstraintParseResult r =
      parse_constraints(".n 6\n0 1\n1 0\n2 3 4 * 2\n.e\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.set.validate(), "");
  // The repeated {0,1} group canonicalised into one constraint.
  EXPECT_EQ(r.set.size(), 2);
  EXPECT_DOUBLE_EQ(r.set.constraints[0].weight, 2.0);
}

}  // namespace
}  // namespace picola
