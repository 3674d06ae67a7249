#include <gtest/gtest.h>

#include "kiss/fsm.h"
#include "kiss/kiss_io.h"

namespace picola {
namespace {

constexpr const char* kSmall = R"(.i 2
.o 1
.s 3
.r A
00 A A 0
01 A B 0
1- A C 1
-- B A 1
-- C * -
.e
)";

TEST(KissIo, ParsesSmallMachine) {
  KissParseResult r = parse_kiss(kSmall);
  ASSERT_TRUE(r.ok()) << r.error;
  const Fsm& f = r.fsm;
  EXPECT_EQ(f.num_inputs, 2);
  EXPECT_EQ(f.num_outputs, 1);
  EXPECT_EQ(f.num_states(), 3);
  EXPECT_EQ(f.transitions.size(), 5u);
  EXPECT_EQ(f.reset_state, f.state_index("A"));
  EXPECT_EQ(f.transitions[4].to, Transition::kAnyState);
  EXPECT_EQ(f.transitions[4].output, "-");
  EXPECT_EQ(f.validate(), "");
}

TEST(KissIo, RoundTrip) {
  KissParseResult r1 = parse_kiss(kSmall);
  ASSERT_TRUE(r1.ok());
  std::string text = write_kiss(r1.fsm);
  KissParseResult r2 = parse_kiss(text);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r2.fsm.num_states(), 3);
  EXPECT_EQ(r2.fsm.transitions.size(), 5u);
  EXPECT_EQ(r2.fsm.state_names, r1.fsm.state_names);
  for (size_t i = 0; i < r1.fsm.transitions.size(); ++i) {
    EXPECT_EQ(r1.fsm.transitions[i].input, r2.fsm.transitions[i].input);
    EXPECT_EQ(r1.fsm.transitions[i].from, r2.fsm.transitions[i].from);
    EXPECT_EQ(r1.fsm.transitions[i].to, r2.fsm.transitions[i].to);
    EXPECT_EQ(r1.fsm.transitions[i].output, r2.fsm.transitions[i].output);
  }
}

TEST(KissIo, RejectsBadRow) {
  EXPECT_FALSE(parse_kiss(".i 2\n.o 1\n00 A B\n.e\n").ok());
  EXPECT_FALSE(parse_kiss("00 A B 1\n").ok());
}

TEST(KissIo, WarnsOnStateCountMismatch) {
  KissParseResult r = parse_kiss(".i 1\n.o 1\n.s 5\n0 A A 1\n.e\n");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warnings.empty());
}

TEST(KissIo, RejectsUnknownResetState) {
  EXPECT_FALSE(parse_kiss(".i 1\n.o 1\n.r Z\n0 A A 1\n.e\n").ok());
}

TEST(Fsm, StateIndexAndAdd) {
  Fsm f;
  EXPECT_EQ(f.state_index("A"), -1);
  EXPECT_EQ(f.add_state("A"), 0);
  EXPECT_EQ(f.add_state("B"), 1);
  EXPECT_EQ(f.add_state("A"), 0);
  EXPECT_EQ(f.num_states(), 2);
}

TEST(Fsm, DeterminismCheck) {
  KissParseResult r = parse_kiss(kSmall);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.fsm.is_deterministic());
  // Add an overlapping row for state A.
  r.fsm.transitions.push_back({"0-", r.fsm.state_index("A"), 0, "0"});
  EXPECT_FALSE(r.fsm.is_deterministic());
}

TEST(Fsm, CompletenessCheck) {
  KissParseResult r = parse_kiss(kSmall);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.fsm.is_complete());
  // Remove B's catch-all row: B becomes incompletely specified.
  r.fsm.transitions.erase(r.fsm.transitions.begin() + 3);
  EXPECT_FALSE(r.fsm.is_complete());
}

TEST(Fsm, ValidateCatchesBadIndices) {
  KissParseResult r = parse_kiss(kSmall);
  ASSERT_TRUE(r.ok());
  Fsm f = r.fsm;
  f.transitions[0].to = 99;
  EXPECT_NE(f.validate(), "");
}

}  // namespace
}  // namespace picola
