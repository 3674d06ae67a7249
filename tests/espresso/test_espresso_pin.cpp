// Pins the covers esp::minimize and esp::complement return on a seeded
// stream of random multi-valued functions.  The cube words of every cover,
// in order, feed one hash, so a change to the cube library or to ESPRESSO
// that is meant to leave results bit-identical must keep these constants;
// a cube count alone would not show a different choice of primes.
// tests/eval compares the cost kernel with check/reference_eval, and both
// run on this library, so they would move together; this pin would not.
// A change that is meant to move results updates the constants in the same
// commit and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "espresso/espresso.h"

namespace picola {
namespace {

/// FNV-1a over 64-bit words.
struct CoverHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
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

/// Explicit integer draws only, so the stream is the same on every
/// standard library.
struct Draw {
  std::mt19937_64 rng;
  int operator()(int lo, int hi) {  // uniform in [lo, hi]
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
};

/// A space of one of four shapes: binary, small multi-valued, an FSM
/// layout of 1-2 words, or a wide FSM layout of 2-6 words.
CubeSpace random_space(Draw& d, int shape) {
  switch (shape) {
    case 0:
      return CubeSpace::binary(d(1, 10));
    case 1: {
      std::vector<int> parts(static_cast<size_t>(d(1, 5)));
      for (int& p : parts) p = d(1, 9);
      return CubeSpace::multi_valued(parts);
    }
    case 2:
      return CubeSpace::fsm_layout(d(0, 6), d(2, 40), d(1, 40));
    default:
      return CubeSpace::fsm_layout(d(0, 4), d(60, 200), d(60, 160));
  }
}

/// A random cube: each literal full with probability 2/5, else a random
/// non-empty part subset (one part for a binary variable, about a third
/// of the parts otherwise).
Cube random_cube(Draw& d, const CubeSpace& s) {
  Cube c = Cube::full(s);
  for (int v = 0; v < s.num_vars(); ++v) {
    if (d(0, 4) < 2) continue;
    c.clear_var(s, v);
    const int parts = s.parts(v);
    if (parts <= 2) {
      c.set(s, v, d(0, parts - 1));
      continue;
    }
    c.set(s, v, d(0, parts - 1));
    for (int p = 0; p < parts; ++p)
      if (d(0, 2) == 0) c.set(s, v, p);
  }
  return c;
}

Cover random_cover(Draw& d, const CubeSpace& s, int n) {
  Cover f(s);
  for (int i = 0; i < n; ++i) f.add(random_cube(d, s));
  return f;
}

/// Hashes minimize(F, D) with default options and single-pass, and
/// complement(F), over `count` functions of space shape `shape`.
std::string stream_hash(uint64_t seed, int shape, int count, int max_cubes) {
  Draw d{std::mt19937_64(seed)};
  CoverHash h;
  for (int i = 0; i < count; ++i) {
    const CubeSpace s = random_space(d, shape);
    const Cover f = random_cover(d, s, d(1, max_cubes));
    const Cover dc = random_cover(d, s, d(0, 3));
    esp::EspressoResult r = esp::minimize(f, dc);
    h.mix(r.cover);
    h.mix(static_cast<uint64_t>(r.iterations));
    esp::EspressoOptions single;
    single.single_pass = true;
    h.mix(esp::minimize(f, dc, single).cover);
    h.mix(esp::complement(f));
  }
  return hex(h.h);
}

TEST(EspressoPin, BinarySpaces) {
  EXPECT_EQ(stream_hash(20261019, 0, 400, 14), "0x991e40b0d29502e9");
}

TEST(EspressoPin, MultiValuedSpaces) {
  EXPECT_EQ(stream_hash(20261020, 1, 400, 12), "0xc10d1b441f687efc");
}

TEST(EspressoPin, FsmLayoutsOfOneAndTwoWords) {
  EXPECT_EQ(stream_hash(20261021, 2, 150, 10), "0x2fa5f2f4e5d3fb94");
}

TEST(EspressoPin, WideFsmLayouts) {
  // 120-364 parts: 2 to 6 words per cube, past any inline capacity.
  EXPECT_EQ(stream_hash(20261022, 3, 24, 6), "0x73664907973bf84b");
}

}  // namespace
}  // namespace picola
