// Pins the baseline encoders and the exact minimiser.  The NOVA-like codes
// (i and io flavours) over Table I, the ENC-like codes over the Table I
// sets that refine quickly, and the exact covers of a seeded stream of
// small functions each feed one hash.  These are the columns Table I and
// the ablation benches compare PICOLA against, so a change that is meant
// to leave them alone (turning a pass count or a node budget into a
// constant) must keep these constants.  A change that is meant to move
// them updates them in the same commit and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>

#include "constraints/derive.h"
#include "encoders/enc_like.h"
#include "encoders/nova_like.h"
#include "espresso/exact.h"
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

TEST(BaselinePin, NovaLikeTableOne) {
  PinHash h;
  for (const std::string& name : table1_benchmarks()) {
    const Fsm fsm = make_benchmark(name);
    const ConstraintSet set = derive_face_constraints(fsm).set;
    NovaLikeResult i = nova_like_encode(set);
    h.mix(i.encoding);
    h.mix(static_cast<uint64_t>(i.embedded_constraints));
    NovaLikeOptions io;
    io.adjacency = next_state_adjacency(fsm);
    h.mix(nova_like_encode(set, io).encoding);
  }
  EXPECT_EQ(hex(h.h), "0xad9a8b90221276a6");
}

TEST(BaselinePin, EncLikeTableOne) {
  // tbk, s510 and scf refine for 0.08-0.3 s each; the rest together take
  // about as long as one of them.
  const std::set<std::string> slow = {"tbk", "s510", "scf"};
  PinHash h;
  for (const std::string& name : table1_benchmarks()) {
    if (slow.count(name)) continue;
    const ConstraintSet set = derive_face_constraints(make_benchmark(name)).set;
    EncLikeResult r = enc_like_encode(set);
    h.mix(r.encoding);
    h.mix(static_cast<uint64_t>(r.espresso_calls));
  }
  EXPECT_EQ(hex(h.h), "0x10981d5ad0d860e6");
}

/// Explicit integer draws only, so the stream is the same on every
/// standard library.
struct Draw {
  std::mt19937_64 rng;
  int operator()(int lo, int hi) {  // uniform in [lo, hi]
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
};

/// A random cube of a small binary or multi-valued space: each literal is
/// full with probability 2/5, else one random part plus each other part
/// with probability 1/3.
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

TEST(BaselinePin, ExactMinimizeStream) {
  Draw d{std::mt19937_64(20261021)};
  PinHash h;
  for (int i = 0; i < 400; ++i) {
    std::vector<int> parts(static_cast<size_t>(d(2, 7)));
    for (int& p : parts) p = d(0, 2) == 0 ? d(3, 4) : 2;
    const CubeSpace s = CubeSpace::multi_valued(parts);
    Cover f(s), dc(s);
    for (int k = d(1, 10); k > 0; --k) f.add(random_cube(d, s));
    for (int k = d(0, 2); k > 0; --k) dc.add(random_cube(d, s));
    std::optional<Cover> m = esp::exact_minimize(f, dc);
    ASSERT_TRUE(m.has_value());
    h.mix(*m);
  }
  EXPECT_EQ(hex(h.h), "0x14d6123288ee3d98");
}

}  // namespace
}  // namespace picola
