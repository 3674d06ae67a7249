#include <gtest/gtest.h>

#include "constraints/dichotomy.h"
#include "constraints/face_constraint.h"
#include "encoders/trivial.h"

namespace picola {
namespace {

TEST(FaceConstraint, ContainsAndIntersect) {
  FaceConstraint a;
  a.members = {1, 3, 5};
  EXPECT_TRUE(a.contains(3));
  EXPECT_FALSE(a.contains(2));
  FaceConstraint b;
  b.members = {3, 4, 5};
  EXPECT_EQ(a.common_members(b), 2);  // {3, 5}
  EXPECT_EQ(b.common_members(a), 2);
  FaceConstraint c;
  c.members = {0, 2};
  EXPECT_EQ(a.common_members(c), 0);
}

TEST(ConstraintSet, AddSortsDedupsAndDropsTrivial) {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({5, 1, 3});
  cs.add({2});                   // singleton -> dropped
  cs.add({0, 1, 2, 3, 4, 5});    // full set -> dropped
  cs.add({3, 1, 5});             // duplicate -> weight merge
  ASSERT_EQ(cs.size(), 1);
  EXPECT_EQ(cs.constraints[0].members, (std::vector<int>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(cs.constraints[0].weight, 2.0);
}

TEST(ConstraintSet, SeedDichotomyCount) {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({0, 1});      // 4 outsiders
  cs.add({2, 3, 4});   // 3 outsiders
  EXPECT_EQ(cs.num_seed_dichotomies(), 7);
  EXPECT_EQ(seed_dichotomies(cs).size(), 7u);
}

TEST(Dichotomy, SatisfactionUnderSequentialEncoding) {
  // Codes 0..3 on 2 bits: 00, 01, 10, 11.
  Encoding e = sequential_encoding(4);
  FaceConstraint c;
  c.members = {0, 1};  // supercube 0-
  EXPECT_TRUE(dichotomy_satisfied(c, 2, e));  // bit1 separates
  EXPECT_TRUE(dichotomy_satisfied(c, 3, e));
  EXPECT_TRUE(constraint_satisfied(c, e));

  FaceConstraint d;
  d.members = {0, 3};  // supercube --: contains everyone
  EXPECT_FALSE(dichotomy_satisfied(d, 1, e));
  EXPECT_FALSE(constraint_satisfied(d, e));
  EXPECT_EQ(intruders(d, e), (std::vector<int>{1, 2}));
}

TEST(Dichotomy, CountsOverSet) {
  Encoding e = sequential_encoding(4);
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});  // satisfied: 2 dichotomies
  cs.add({0, 3});  // violated: 0 dichotomies
  EXPECT_EQ(count_satisfied_constraints(cs, e), 1);
  EXPECT_EQ(count_satisfied_dichotomies(cs, e), 2);
}

TEST(Encoding, SupercubeAndUnused) {
  Encoding e = sequential_encoding(3);  // 2 bits, code 3 unused
  CodeCube cc = e.supercube({0, 1});
  EXPECT_TRUE(cc.contains(0));
  EXPECT_TRUE(cc.contains(1));
  EXPECT_FALSE(cc.contains(2));
  EXPECT_EQ(cc.dim(2), 1);
  EXPECT_EQ(e.unused_codes(), (std::vector<uint32_t>{3}));
}

TEST(Encoding, Validate) {
  Encoding e = sequential_encoding(4);
  EXPECT_EQ(e.validate(), "");
  e.codes[1] = e.codes[0];
  EXPECT_NE(e.validate(), "");
  e = sequential_encoding(4);
  e.codes[2] = 7;  // out of 2-bit range
  EXPECT_NE(e.validate(), "");
}

TEST(Encoding, MinBits) {
  EXPECT_EQ(Encoding::min_bits(2), 1);
  EXPECT_EQ(Encoding::min_bits(3), 2);
  EXPECT_EQ(Encoding::min_bits(4), 2);
  EXPECT_EQ(Encoding::min_bits(5), 3);
  EXPECT_EQ(Encoding::min_bits(16), 4);
  EXPECT_EQ(Encoding::min_bits(17), 5);
}

TEST(Encoding, MinBitsLargeCountsDoNotOverflowTheShift) {
  // Regression (UBSan): the loop compared 1 << bits in int arithmetic,
  // UB once bits reached 31 (any count above 2^30).
  EXPECT_EQ(Encoding::min_bits(1 << 30), 30);
  EXPECT_EQ(Encoding::min_bits((1 << 30) + 1), 31);
  EXPECT_EQ(Encoding::min_bits(0x7FFFFFFF), 31);
}

TEST(Encoding, ValidateRejectsTooShortCodeLength) {
  // Regression: the codes-fit check shifted in int arithmetic; the
  // too-short case must be reported, not wrapped around.
  Encoding e;
  e.num_symbols = 5;
  e.num_bits = 2;
  e.codes = {0, 1, 2, 3, 3};
  EXPECT_NE(e.validate(), "");
}

TEST(ConstraintSetValidate, AcceptsCanonicalSets) {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({0, 1});
  cs.add({2, 3, 4}, 2.5);
  EXPECT_EQ(cs.validate(), "");
}

TEST(ConstraintSetValidate, RejectsDirectlyAssembledBadSets) {
  auto with = [](int n, FaceConstraint c) {
    ConstraintSet cs;
    cs.num_symbols = n;
    cs.constraints.push_back(std::move(c));
    return cs;
  };
  FaceConstraint c;
  c.members = {0, 4};
  EXPECT_NE(with(4, c).validate().find("out of range"), std::string::npos);
  c.members = {1, 0};
  EXPECT_NE(with(4, c).validate().find("not sorted"), std::string::npos);
  c.members = {0, 0, 1};
  EXPECT_NE(with(4, c).validate().find("not sorted"), std::string::npos);
  c.members = {2};
  EXPECT_NE(with(4, c).validate().find("fewer than 2"), std::string::npos);
  c.members = {0, 1, 2, 3};
  EXPECT_NE(with(4, c).validate().find("covers every"), std::string::npos);
  c.members = {0, 1};
  c.weight = 0;
  EXPECT_NE(with(4, c).validate().find("weight"), std::string::npos);
  c.weight = -1;
  EXPECT_NE(with(4, c).validate().find("weight"), std::string::npos);
}

TEST(ConstraintSetValidate, RejectsDuplicateMemberLists) {
  ConstraintSet cs;
  cs.num_symbols = 5;
  FaceConstraint a;
  a.members = {0, 1};
  cs.constraints.push_back(a);
  cs.constraints.push_back(a);
  EXPECT_NE(cs.validate().find("duplicate of constraint 0"),
            std::string::npos);
  // add() merges instead, so built-through-add sets always validate.
  ConstraintSet via_add;
  via_add.num_symbols = 5;
  via_add.add({0, 1});
  via_add.add({1, 0}, 3.0);
  EXPECT_EQ(via_add.validate(), "");
  EXPECT_EQ(via_add.size(), 1);
}

}  // namespace
}  // namespace picola
