#include <gtest/gtest.h>

#include <random>

#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"
#include "kiss/minimize_states.h"
#include "kiss/simulator.h"

namespace picola {
namespace {

// Co-simulate two machines on random input sequences; outputs must agree
// wherever both are specified.
std::string cosim(const Fsm& a, const Fsm& b, int steps, uint64_t seed) {
  std::mt19937_64 rng(seed);
  FsmSimulator sa(a), sb(b);
  for (int i = 0; i < steps; ++i) {
    std::vector<int> bits(static_cast<size_t>(a.num_inputs));
    for (int& x : bits) x = static_cast<int>(rng() % 2);
    SimStep ra = sa.step(bits);
    SimStep rb = sb.step(bits);
    if (!ra.matched || !rb.matched) {
      sa.reset();
      sb.reset();
      continue;
    }
    for (int o = 0; o < a.num_outputs; ++o) {
      char x = ra.output[static_cast<size_t>(o)];
      char y = rb.output[static_cast<size_t>(o)];
      if (x != '-' && y != '-' && x != y)
        return "output mismatch at step " + std::to_string(i);
    }
  }
  return "";
}

// A machine with an obviously redundant pair: B and C behave identically.
constexpr const char* kRedundant = R"(.i 1
.o 1
.r A
0 A B 0
1 A C 0
0 B A 1
1 B B 0
0 C A 1
1 C C 0
.e
)";

TEST(MinimizeStates, MergesEquivalentPair) {
  KissParseResult r = parse_kiss(kRedundant);
  ASSERT_TRUE(r.ok());
  StateMinimizeResult m = minimize_states(r.fsm);
  EXPECT_TRUE(m.exact);
  EXPECT_EQ(m.merged, 1);
  EXPECT_EQ(m.fsm.num_states(), 2);
  EXPECT_EQ(m.fsm.validate(), "");
  EXPECT_EQ(cosim(r.fsm, m.fsm, 2000, 5), "");
  // B and C map to the same reduced state.
  EXPECT_EQ(m.state_map[static_cast<size_t>(r.fsm.state_index("B"))],
            m.state_map[static_cast<size_t>(r.fsm.state_index("C"))]);
}

TEST(MinimizeStates, MinimalMachineUntouched) {
  Fsm f = make_example_fsm("vending");
  StateMinimizeResult m = minimize_states(f);
  EXPECT_EQ(m.merged, 0);
  EXPECT_EQ(m.fsm.num_states(), f.num_states());
  EXPECT_EQ(m.note, "machine is already minimal");
}

TEST(MinimizeStates, ChainOfEquivalentStatesCollapses) {
  // Four states, all with identical behaviour.
  Fsm f;
  f.num_inputs = 1;
  f.num_outputs = 1;
  for (int i = 0; i < 4; ++i) {
    std::string name = "q";
    name += std::to_string(i);
    f.add_state(name);
  }
  for (int i = 0; i < 4; ++i) {
    f.transitions.push_back({"0", i, (i + 1) % 4, "0"});
    f.transitions.push_back({"1", i, i, "1"});
  }
  StateMinimizeResult m = minimize_states(f);
  EXPECT_TRUE(m.exact);
  EXPECT_EQ(m.fsm.num_states(), 1);
  EXPECT_EQ(cosim(f, m.fsm, 2000, 6), "");
}

TEST(MinimizeStates, DistinguishableByDelayedOutput) {
  // A and B produce the same immediate outputs but diverge one step later.
  Fsm f;
  f.num_inputs = 1;
  f.num_outputs = 1;
  f.add_state("A");
  f.add_state("B");
  f.add_state("X");
  f.add_state("Y");
  f.transitions.push_back({"-", 0, 2, "0"});  // A -> X
  f.transitions.push_back({"-", 1, 3, "0"});  // B -> Y
  f.transitions.push_back({"-", 2, 2, "0"});  // X loops, output 0
  f.transitions.push_back({"-", 3, 3, "1"});  // Y loops, output 1
  StateMinimizeResult m = minimize_states(f);
  // A ≡ X (both emit 0 forever) but B and Y stay distinct from them and
  // from each other: exactly one merge.
  EXPECT_EQ(m.fsm.num_states(), 3);
  EXPECT_EQ(m.state_map[0], m.state_map[2]);  // A with X
  EXPECT_NE(m.state_map[0], m.state_map[1]);  // A and B diverge later
  EXPECT_NE(m.state_map[1], m.state_map[3]);  // B and Y differ immediately
  EXPECT_EQ(cosim(f, m.fsm, 2000, 9), "");
}

TEST(MinimizeStates, NondeterministicMachineRefused) {
  Fsm f;
  f.num_inputs = 1;
  f.num_outputs = 1;
  f.add_state("A");
  f.transitions.push_back({"-", 0, 0, "0"});
  f.transitions.push_back({"0", 0, 0, "1"});  // overlaps
  StateMinimizeResult m = minimize_states(f);
  EXPECT_EQ(m.merged, 0);
  EXPECT_NE(m.note.find("nondeterministic"), std::string::npos);
}

TEST(MinimizeStates, BenchmarksStayEquivalent) {
  for (const char* name : {"lion9", "ex3", "bbara", "dk14", "opus"}) {
    Fsm f = make_benchmark(name);
    StateMinimizeResult m = minimize_states(f);
    EXPECT_EQ(m.fsm.validate(), "") << name;
    EXPECT_EQ(cosim(f, m.fsm, 1500, 7), "") << name;
    EXPECT_LE(m.fsm.num_states(), f.num_states());
  }
}

TEST(MinimizeStates, IncompleteMachineHandledConservatively) {
  // Incompletely specified: compatibility chart may merge, but only clique
  // classes; either way behaviour is preserved where specified.
  KissParseResult r = parse_kiss(
      ".i 1\n.o 1\n.r A\n0 A B 0\n0 B A 1\n1 B B 0\n0 C A 1\n1 C C 0\n.e\n");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.fsm.is_complete());
  StateMinimizeResult m = minimize_states(r.fsm);
  EXPECT_FALSE(m.exact);
  EXPECT_EQ(cosim(r.fsm, m.fsm, 2000, 8), "");
}

}  // namespace
}  // namespace picola
