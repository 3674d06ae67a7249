// End-to-end behaviour on incompletely specified machines: unspecified
// inputs, '*' next states and '-' outputs must flow through constraint
// derivation, assembly and verification as don't-cares.

#include <gtest/gtest.h>

#include "constraints/derive.h"
#include "espresso/espresso.h"
#include "kiss/kiss_io.h"
#include "stateassign/state_assign.h"

namespace picola {
namespace {

// A deliberately nasty little machine: state B has no row for input 11,
// C's successor is unspecified, and several outputs are dc.
constexpr const char* kPartial = R"(.i 2
.o 2
.s 4
.r A
00 A A 00
01 A B 1-
1- A C 01
0- B A -1
10 B D 10
-- C * --
00 D B 0-
-1 D D 11
10 D * 1-
.e
)";

Fsm partial_machine() {
  KissParseResult r = parse_kiss(kPartial);
  EXPECT_TRUE(r.ok()) << r.error;
  return r.fsm;
}

TEST(IncompleteFsm, ParsesWithStarsAndDcOutputs) {
  Fsm f = partial_machine();
  EXPECT_EQ(f.validate(), "");
  EXPECT_FALSE(f.is_complete());
  EXPECT_TRUE(f.is_deterministic());
}

TEST(IncompleteFsm, SymbolicCoverHasDcCubes) {
  Fsm f = partial_machine();
  Cover onset, dc;
  build_symbolic_cover(f, &onset, &dc);
  EXPECT_GT(dc.size(), 0);
  // The '*' row contributes every next-state part as dc.
  const CubeSpace& s = onset.space();
  bool star_dc = false;
  for (const Cube& c : dc.cubes()) {
    bool all_states = true;
    for (int q = 0; q < f.num_states(); ++q)
      if (!c.test(s, s.output_var(), q)) all_states = false;
    star_dc |= all_states;
  }
  EXPECT_TRUE(star_dc);
}

TEST(IncompleteFsm, DerivationStaysEquivalent) {
  Fsm f = partial_machine();
  DerivedConstraints d = derive_face_constraints(f);
  EXPECT_TRUE(esp::equivalent(d.minimized, d.symbolic_onset, d.symbolic_dc));
}

class IncompleteAssign : public ::testing::TestWithParam<Assigner> {};

TEST_P(IncompleteAssign, VerifiedImplementation) {
  Fsm f = partial_machine();
  StateAssignOptions opt;
  opt.assigner = GetParam();
  StateAssignResult r = assign_states(f, opt);
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_EQ(
      verify_against_fsm(f, r.encoding, r.minimized, r.encoded_dc, 600, 11),
      "")
      << assigner_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Assigners, IncompleteAssign,
                         ::testing::Values(Assigner::kPicola,
                                           Assigner::kNovaILike,
                                           Assigner::kNovaIoLike,
                                           Assigner::kSequential),
                         [](const ::testing::TestParamInfo<Assigner>& info) {
                           std::string n = assigner_name(info.param);
                           for (char& ch : n)
                             if (!isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return n;
                         });

TEST(IncompleteFsm, RawTableFlowAlsoVerifies) {
  Fsm f = partial_machine();
  StateAssignOptions opt;
  opt.use_symbolic_cover = false;
  StateAssignResult r = assign_states(f, opt);
  EXPECT_EQ(
      verify_against_fsm(f, r.encoding, r.minimized, r.encoded_dc, 600, 13),
      "");
}

}  // namespace
}  // namespace picola
