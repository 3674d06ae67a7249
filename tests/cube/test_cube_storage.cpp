// Cube storage: up to Cube::kInlineWords words live in the cube, wider
// cubes on the heap.  Copy, move and assignment in every inline/heap
// combination, self-assignment, reuse after a move, and == / < checked
// against std::vector<uint64_t>, the representation before inline words,
// on spaces of 1, K, K+1 and 6 words (the widest Table I derivation, scf,
// takes 6).  The word-level primitives are checked bit by bit against
// test().

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "cube/cube.h"

namespace picola {
namespace {

constexpr int K = Cube::kInlineWords;

/// Five binary variables and one multi-valued variable: 64*words - 34
/// parts, so exactly `words` words, with a variable crossing every word
/// boundary past the first.
CubeSpace space_of_words(int words) {
  return CubeSpace::fsm_layout(5, 64 * (words - 1) + 20, 0);
}

std::vector<int> widths() { return {1, K, K + 1, 6}; }

Cube random_cube(const CubeSpace& s, std::mt19937_64& rng) {
  Cube c = Cube::zeros(s);
  for (int v = 0; v < s.num_vars(); ++v)
    for (int p = 0; p < s.parts(v); ++p)
      if (rng() % 3 != 0) c.set(s, v, p);
  return c;
}

std::vector<uint64_t> as_vector(const Cube& c) {
  return {c.words().begin(), c.words().end()};
}

TEST(CubeStorage, WidthsSpanInlineAndHeap) {
  for (int w : widths()) EXPECT_EQ(space_of_words(w).num_words(), w);
  EXPECT_EQ(sizeof(Cube), sizeof(uint64_t) * (K + 1));
}

TEST(CubeStorage, CopyAndMoveConstruct) {
  std::mt19937_64 rng(1);
  for (int w : widths()) {
    const CubeSpace s = space_of_words(w);
    const Cube a = random_cube(s, rng);
    Cube copy(a);
    EXPECT_EQ(copy, a);
    copy.set(s, 5, 0, !copy.test(s, 5, 0));  // a deep copy
    EXPECT_NE(copy, a);
    Cube src(a);
    Cube moved(std::move(src));
    EXPECT_EQ(moved, a);
    EXPECT_EQ(src.num_words(), 0);  // moved-from is empty
  }
}

TEST(CubeStorage, AssignAcrossInlineAndHeap) {
  std::mt19937_64 rng(2);
  for (int from : widths()) {
    for (int to : widths()) {
      const CubeSpace sf = space_of_words(from);
      const CubeSpace st = space_of_words(to);
      const Cube a = random_cube(sf, rng);
      const Cube b = random_cube(st, rng);
      Cube x = b;
      x = a;  // copy-assign
      EXPECT_EQ(as_vector(x), as_vector(a)) << from << " <- " << to;
      Cube y = b;
      Cube tmp = a;
      y = std::move(tmp);  // move-assign
      EXPECT_EQ(as_vector(y), as_vector(a)) << from << " <- " << to;
      EXPECT_EQ(tmp.num_words(), 0);  // moved-from is empty
      // Same width on both sides reuses the storage.
      Cube z = a;
      z = random_cube(sf, rng);
      z = a;
      EXPECT_EQ(z, a);
    }
  }
}

TEST(CubeStorage, SelfAssignment) {
  std::mt19937_64 rng(3);
  for (int w : widths()) {
    const CubeSpace s = space_of_words(w);
    const Cube a = random_cube(s, rng);
    Cube x = a;
    Cube& alias = x;
    x = alias;
    EXPECT_EQ(x, a);
    x = std::move(alias);
    EXPECT_EQ(x, a);
  }
}

TEST(CubeStorage, MovedFromCubeIsReusable) {
  std::mt19937_64 rng(4);
  for (int w : widths()) {
    const CubeSpace s = space_of_words(w);
    Cube a = random_cube(s, rng);
    Cube b = std::move(a);
    EXPECT_EQ(a, Cube());  // moved-from equals an empty cube
    a = Cube::full(s);
    EXPECT_TRUE(a.is_full(s));
    a.clear_var(s, 5);
    a.set(s, 5, 3);
    EXPECT_EQ(a.var_popcount(s, 5), 1);
    Cube c = std::move(b);
    b = std::move(c);
    EXPECT_EQ(b.num_words(), w);
  }
}

TEST(CubeStorage, OrderAndEqualityMatchVectorSemantics) {
  std::mt19937_64 rng(5);
  std::vector<Cube> cubes = {Cube()};
  for (int w : widths()) {
    const CubeSpace s = space_of_words(w);
    for (int i = 0; i < 12; ++i) cubes.push_back(random_cube(s, rng));
    // Cubes that differ only in the last word, and duplicates.
    Cube c = random_cube(s, rng);
    cubes.push_back(c);
    cubes.push_back(c);
    c.set(s, 5, s.parts(5) - 1, !c.test(s, 5, s.parts(5) - 1));
    cubes.push_back(c);
    cubes.push_back(Cube::zeros(s));
    cubes.push_back(Cube::full(s));
  }
  for (const Cube& a : cubes) {
    for (const Cube& b : cubes) {
      EXPECT_EQ(a == b, as_vector(a) == as_vector(b));
      EXPECT_EQ(a != b, as_vector(a) != as_vector(b));
      EXPECT_EQ(a < b, as_vector(a) < as_vector(b));
    }
  }
}

TEST(CubeStorage, PrimitivesMatchBitByBit) {
  std::mt19937_64 rng(6);
  for (int w : widths()) {
    const CubeSpace s = space_of_words(w);
    for (int i = 0; i < 40; ++i) {
      Cube a = random_cube(s, rng);
      Cube b = random_cube(s, rng);
      if (i % 4 == 0) a.clear_var(s, static_cast<int>(rng() % 6));
      if (i % 5 == 0) b.set_var_full(s, static_cast<int>(rng() % 6));
      int distance = 0;
      bool a_empty = false, a_full = true;
      for (int v = 0; v < s.num_vars(); ++v) {
        int count = 0;
        bool meet = false;
        for (int p = 0; p < s.parts(v); ++p) {
          count += a.test(s, v, p);
          meet |= a.test(s, v, p) && b.test(s, v, p);
        }
        EXPECT_EQ(a.var_popcount(s, v), count);
        EXPECT_EQ(a.var_empty(s, v), count == 0);
        EXPECT_EQ(a.var_full(s, v), count == s.parts(v));
        distance += !meet;
        a_empty |= count == 0;
        a_full &= count == s.parts(v);
      }
      EXPECT_EQ(a.distance(b, s), distance);
      EXPECT_EQ(a.intersects(b, s), distance == 0);
      EXPECT_EQ(a.is_empty(s), a_empty);
      EXPECT_EQ(a.is_full(s), a_full);
      const Cube x = a.intersect(b);
      const Cube u = a.supercube(b);
      for (int v = 0; v < s.num_vars(); ++v)
        for (int p = 0; p < s.parts(v); ++p) {
          EXPECT_EQ(x.test(s, v, p), a.test(s, v, p) && b.test(s, v, p));
          EXPECT_EQ(u.test(s, v, p), a.test(s, v, p) || b.test(s, v, p));
        }
      std::optional<Cube> cf = a.cofactor(b, s);
      ASSERT_EQ(cf.has_value(), distance == 0);
      if (cf) {
        for (int v = 0; v < s.num_vars(); ++v)
          for (int p = 0; p < s.parts(v); ++p)
            EXPECT_EQ(cf->test(s, v, p), a.test(s, v, p) || !b.test(s, v, p));
      }
    }
  }
}

TEST(CubeStorage, SpaceCopiesShareOneLayout) {
  const CubeSpace s = space_of_words(K + 1);
  const CubeSpace copy = s;
  EXPECT_EQ(copy, s);
  EXPECT_EQ(copy.var_words(5).data(), s.var_words(5).data());
  EXPECT_EQ(space_of_words(K + 1), s);  // built apart, equal by value
  EXPECT_NE(space_of_words(K), s);
  EXPECT_EQ(CubeSpace(), CubeSpace());
  EXPECT_EQ(CubeSpace().num_vars(), 0);
  EXPECT_EQ(CubeSpace().num_words(), 0);
  EXPECT_NE(CubeSpace(), CubeSpace::binary(1));
  // The word masks of every variable tile the space's parts exactly.
  for (int w : widths()) {
    const CubeSpace t = space_of_words(w);
    std::vector<uint64_t> seen(static_cast<size_t>(t.num_words()), 0);
    for (int v = 0; v < t.num_vars(); ++v) {
      int bits = 0;
      for (const CubeSpace::WordMask& e : t.var_words(v)) {
        EXPECT_EQ(seen[static_cast<size_t>(e.word)] & e.mask, 0u);
        seen[static_cast<size_t>(e.word)] |= e.mask;
        bits += std::popcount(e.mask);
      }
      EXPECT_EQ(bits, t.parts(v));
    }
    EXPECT_EQ(seen, std::vector<uint64_t>(t.full_words().begin(),
                                          t.full_words().end()));
  }
}

}  // namespace
}  // namespace picola
