#include <gtest/gtest.h>

#include "espresso/espresso.h"
#include "kiss/benchmarks.h"
#include "stateassign/assemble.h"
#include "stateassign/state_assign.h"

namespace picola {
namespace {

TEST(Assemble, EncodedSpaceLayout) {
  Fsm f = make_example_fsm("vending");  // 2 in, 2 out, 4 states -> nv 2
  Encoding e;
  e.num_symbols = 4;
  e.num_bits = 2;
  e.codes = {0, 1, 2, 3};
  CubeSpace s = encoded_space(f, e);
  EXPECT_EQ(s.num_vars(), 2 + 2 + 1);
  EXPECT_EQ(s.parts(s.output_var()), 2 + 2);
}

TEST(Assemble, TransitionTableEncodingVerifies) {
  Fsm f = make_example_fsm("vending");
  Encoding e;
  e.num_symbols = 4;
  e.num_bits = 2;
  e.codes = {0, 1, 2, 3};
  Cover onset, dc;
  encode_transition_table(f, e, &onset, &dc);
  EXPECT_EQ(verify_against_fsm(f, e, onset, dc, 500, 1), "");
}

TEST(Assemble, SymbolicCoverEncodingVerifies) {
  Fsm f = make_example_fsm("traffic");
  DerivedConstraints d = derive_face_constraints(f);
  Encoding e;
  e.num_symbols = f.num_states();
  e.num_bits = 2;
  e.codes = {0, 1, 2, 3};
  Cover onset, dc;
  encode_symbolic_cover(d, f, e, &onset, &dc);
  EXPECT_EQ(verify_against_fsm(f, e, onset, dc, 500, 2), "");
}

struct AssignCase {
  std::string fsm;
  Assigner assigner;
};

class StateAssignSweep : public ::testing::TestWithParam<AssignCase> {};

TEST_P(StateAssignSweep, EndToEndVerifiedImplementation) {
  const AssignCase& ac = GetParam();
  Fsm f = ac.fsm.substr(0, 3) == "ex:" ? make_example_fsm(ac.fsm.substr(3))
                                       : make_benchmark(ac.fsm);
  StateAssignOptions opt;
  opt.assigner = ac.assigner;
  StateAssignResult r = assign_states(f, opt);
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_GT(r.product_terms, 0);
  EXPECT_EQ(r.pla.validate(), "");
  // The minimised implementation must behave like the machine.
  EXPECT_EQ(verify_against_fsm(f, r.encoding, r.minimized, r.encoded_dc, 400,
                               99),
            "")
      << assigner_name(ac.assigner) << " on " << ac.fsm;
  // Minimisation only shrinks.
  EXPECT_LE(r.minimized.size(), r.encoded_onset.size());
}

INSTANTIATE_TEST_SUITE_P(
    MachinesTimesAssigners, StateAssignSweep,
    ::testing::Values(
        AssignCase{"ex:traffic", Assigner::kPicola},
        AssignCase{"ex:vending", Assigner::kPicola},
        AssignCase{"ex:elevator", Assigner::kPicola},
        AssignCase{"lion9", Assigner::kPicola},
        AssignCase{"train11", Assigner::kPicola},
        AssignCase{"ex3", Assigner::kPicola},
        AssignCase{"ex:traffic", Assigner::kNovaILike},
        AssignCase{"lion9", Assigner::kNovaILike},
        AssignCase{"ex:vending", Assigner::kNovaIoLike},
        AssignCase{"lion9", Assigner::kNovaIoLike},
        AssignCase{"ex:traffic", Assigner::kEncLike},
        AssignCase{"ex:vending", Assigner::kSequential},
        AssignCase{"lion9", Assigner::kRandom}),
    [](const ::testing::TestParamInfo<AssignCase>& info) {
      std::string name = info.param.fsm + "_";
      name += assigner_name(info.param.assigner);
      for (char& ch : name)
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(StateAssign, RawTableFlowAlsoVerifies) {
  Fsm f = make_example_fsm("vending");
  StateAssignOptions opt;
  opt.use_symbolic_cover = false;
  StateAssignResult r = assign_states(f, opt);
  EXPECT_EQ(verify_against_fsm(f, r.encoding, r.minimized, r.encoded_dc, 400,
                               7),
            "");
}

TEST(StateAssign, AdjacencyPreferencesComeFromCoOccurrence) {
  Fsm f = make_example_fsm("vending");
  auto prefs = next_state_adjacency(f);
  EXPECT_FALSE(prefs.empty());
  for (const auto& p : prefs) {
    EXPECT_LT(p.a, p.b);
    EXPECT_GT(p.weight, 0);
  }
}

TEST(Assemble, OneHotEncodingVerifies) {
  for (const char* name : {"vending", "traffic", "elevator"}) {
    Fsm f = make_example_fsm(name);
    Cover on, dc;
    encode_one_hot_table(f, &on, &dc);
    Encoding e;
    e.num_symbols = f.num_states();
    e.num_bits = f.num_states();
    for (int s = 0; s < f.num_states(); ++s)
      e.codes.push_back(uint32_t{1} << s);
    EXPECT_EQ(e.validate(), "");
    EXPECT_EQ(verify_against_fsm(f, e, on, dc, 400, 3), "") << name;
    // Minimisation keeps it correct.
    Cover m = esp::minimize_cover(on, dc);
    EXPECT_EQ(verify_against_fsm(f, e, m, dc, 400, 4), "") << name;
    EXPECT_LE(m.size(), on.size());
  }
}

TEST(StateAssign, MinimizeStatesFirstShrinksRedundantMachine) {
  // Build a machine with two copies of the vending states' behaviour.
  Fsm f = make_example_fsm("vending");
  // Add a clone of state C5 (same rows, same targets): mergeable.
  int clone = f.add_state("C5b");
  int c5 = f.state_index("C5");
  std::vector<Transition> extra;
  for (const auto& t : f.transitions)
    if (t.from == c5) extra.push_back({t.input, clone, t.to, t.output});
  for (auto& t : extra) f.transitions.push_back(t);
  // Retarget one row to the clone so it is reachable.
  for (auto& t : f.transitions)
    if (t.from == f.state_index("C0") && t.to == c5) {
      t.to = clone;
      break;
    }

  StateAssignOptions opt;
  opt.minimize_states_first = true;
  StateAssignResult r = assign_states(f, opt);
  EXPECT_EQ(r.states_merged, 1);
  EXPECT_EQ(r.machine.num_states(), 4);
  EXPECT_EQ(verify_against_fsm(r.machine, r.encoding, r.minimized,
                               r.encoded_dc, 400, 5),
            "");
}

TEST(StateAssign, TimingsPopulated) {
  Fsm f = make_example_fsm("traffic");
  StateAssignResult r = assign_states(f);
  EXPECT_GE(r.derive_ms, 0);
  EXPECT_GE(r.encode_ms, 0);
  EXPECT_GE(r.minimize_ms, 0);
  EXPECT_EQ(r.area, static_cast<long>(r.product_terms) *
                        (2L * (f.num_inputs + r.encoding.num_bits) +
                         r.encoding.num_bits + f.num_outputs));
}

}  // namespace
}  // namespace picola
