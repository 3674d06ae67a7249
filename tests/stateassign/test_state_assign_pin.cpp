// Pins the two end-to-end flows.  assign_states runs every Assigner on four
// small machines, and encode_symbolic_input runs every InputEncoder on a
// seeded stream of multi-valued covers; the codes, the cube words of the
// minimised covers and the product-term counts feed one hash per flow.
// Both flows run ESPRESSO twice (symbolic, then encoded), so a change that
// is meant to leave their results alone (turning the minimiser's options
// into constants, removing a switch nothing sets) must keep these
// constants.  A change that is meant to move them updates them in the same
// commit and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "core/input_encoding.h"
#include "kiss/benchmarks.h"
#include "stateassign/state_assign.h"

namespace picola {
namespace {

/// FNV-1a over 64-bit words.
struct PinHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const Encoding& e) {
    mix(static_cast<uint64_t>(e.num_bits));
    for (uint32_t c : e.codes) mix(c);
  }
  void mix(const Cover& f) {
    mix(static_cast<uint64_t>(f.size()));
    for (const Cube& c : f.cubes())
      for (int w = 0; w < c.num_words(); ++w) mix(c.word(w));
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(StateAssignPin, EveryAssignerOnSmallMachines) {
  const Assigner assigners[] = {Assigner::kPicola,   Assigner::kNovaILike,
                                Assigner::kNovaIoLike, Assigner::kEncLike,
                                Assigner::kSequential, Assigner::kRandom};
  const Fsm machines[] = {make_example_fsm("traffic"), make_benchmark("lion9"),
                          make_benchmark("bbara"), make_benchmark("s386")};
  PinHash h;
  for (const Fsm& fsm : machines) {
    for (Assigner a : assigners) {
      StateAssignOptions opt;
      opt.assigner = a;
      StateAssignResult r = assign_states(fsm, opt);
      h.mix(r.encoding);
      h.mix(r.derived.minimized);
      h.mix(r.minimized);
      h.mix(static_cast<uint64_t>(r.product_terms));
    }
  }
  EXPECT_EQ(hex(h.h), "0x120b313d237eb052");
}

/// Explicit integer draws only, so the stream is the same on every
/// standard library.
struct Draw {
  std::mt19937_64 rng;
  int operator()(int lo, int hi) {  // uniform in [lo, hi]
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
};

/// A random cube: each literal full with probability 2/5, else one random
/// part plus each other part of a multi-valued variable with
/// probability 1/3.
Cube random_cube(Draw& d, const CubeSpace& s) {
  Cube c = Cube::full(s);
  for (int v = 0; v < s.num_vars(); ++v) {
    if (d(0, 4) < 2) continue;
    c.clear_var(s, v);
    c.set(s, v, d(0, s.parts(v) - 1));
    for (int p = 0; p < s.parts(v); ++p)
      if (s.parts(v) > 2 && d(0, 2) == 0) c.set(s, v, p);
  }
  return c;
}

TEST(StateAssignPin, EveryInputEncoderOnSeededCovers) {
  const InputEncoder encoders[] = {
      InputEncoder::kPicola,     InputEncoder::kNovaLike,
      InputEncoder::kEncLike,    InputEncoder::kAnnealing,
      InputEncoder::kSequential, InputEncoder::kRandom};
  Draw d{std::mt19937_64(20261022)};
  PinHash h;
  for (int i = 0; i < 40; ++i) {
    // Binary inputs, the symbolic variable, then a multi-valued output.
    std::vector<int> parts(static_cast<size_t>(d(1, 4)), 2);
    const int var = static_cast<int>(parts.size());
    parts.push_back(d(3, 12));
    parts.push_back(d(1, 4));
    const CubeSpace s = CubeSpace::multi_valued(parts);
    Cover onset(s), dc(s);
    for (int k = d(2, 12); k > 0; --k) onset.add(random_cube(d, s));
    for (int k = d(0, 2); k > 0; --k) dc.add(random_cube(d, s));
    for (InputEncoder e : encoders) {
      InputEncodingOptions opt;
      opt.encoder = e;
      InputEncodingResult r = encode_symbolic_input(onset, dc, var, opt);
      h.mix(r.minimized_symbolic);
      h.mix(r.encoding);
      h.mix(r.minimized);
    }
  }
  EXPECT_EQ(hex(h.h), "0xe0f73f341a25411e");
}

}  // namespace
}  // namespace picola
