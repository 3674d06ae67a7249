#include <gtest/gtest.h>

#include "../test_util.h"
#include "espresso/espresso.h"

namespace picola {
namespace {

using test::bcover;
using test::bcube;

TEST(Expand, RaisesToPrime) {
  CubeSpace s = CubeSpace::binary(3);
  // f = 000 + 001; offset = everything with x0=1 or x1=1.
  Cover f = bcover(s, {"000", "001"});
  Cover r = esp::complement(f);
  Cover e = esp::expand(f, r);
  ASSERT_EQ(e.size(), 1);
  EXPECT_EQ(e[0], bcube(s, "00-"));
}

TEST(Expand, KeepsDisjointFromOffset) {
  CubeSpace s = CubeSpace::binary(4);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Cover f = test::random_cover(s, 4, rng);
    f.remove_empty();
    if (f.empty()) continue;
    Cover r = esp::complement(f);
    Cover e = esp::expand(f, r);
    EXPECT_TRUE(esp::disjoint(e, r));
    EXPECT_TRUE(test::same_function(e, f));
  }
}

TEST(Irredundant, DropsRedundantMiddleCube) {
  CubeSpace s = CubeSpace::binary(2);
  // 0- and -1 cover 01; the cube 01 is redundant.
  Cover f = bcover(s, {"0-", "-1", "01"});
  Cover g = esp::irredundant(f, Cover(s));
  EXPECT_EQ(g.size(), 2);
  EXPECT_TRUE(test::same_function(g, f));
}

TEST(Irredundant, UsesDcSet) {
  CubeSpace s = CubeSpace::binary(2);
  Cover f = bcover(s, {"01"});
  Cover d = bcover(s, {"0-"});
  // The only onset cube is covered by the dc-set; dropping it keeps the
  // function (modulo dc) intact.
  Cover g = esp::irredundant(f, d);
  EXPECT_EQ(g.size(), 0);
}

TEST(Reduce, ShrinksOverlappingCube) {
  CubeSpace s = CubeSpace::binary(2);
  // f = {0-, -1}: reducing -1 against 0- leaves 11.
  Cover f = bcover(s, {"0-", "-1"});
  Cover g = esp::reduce(f, Cover(s));
  EXPECT_TRUE(test::same_function(g, f));
  // One of the two cubes must have shrunk to a minterm.
  uint64_t total = 0;
  for (const Cube& c : g.cubes()) total += c.num_minterms(s);
  EXPECT_EQ(total, 3u);  // disjoint after reduction
}

TEST(Essential, IdentifiesEssentialPrime) {
  CubeSpace s = CubeSpace::binary(3);
  // Classic: f = x0'x1' + x1 x2; both primes essential.
  Cover f = bcover(s, {"00-", "-11"});
  auto [ess, rest] = esp::essential_split(f, Cover(s));
  EXPECT_EQ(ess.size(), 2);
  EXPECT_EQ(rest.size(), 0);
}

TEST(Minimize, ClassicTwoCubeResult) {
  CubeSpace s = CubeSpace::binary(3);
  // f = minterms {000, 001, 011, 111}: minimal SOP = 00- + -11 (2 cubes).
  Cover f = bcover(s, {"000", "001", "011", "111"});
  Cover m = esp::minimize_cover(f, Cover(s));
  EXPECT_EQ(m.size(), 2);
  EXPECT_TRUE(test::same_function(m, f));
}

TEST(Minimize, UsesDontCaresToMerge) {
  CubeSpace s = CubeSpace::binary(3);
  // onset {000, 011}, dc {001, 010}: single cube 0-- suffices.
  Cover f = bcover(s, {"000", "011"});
  Cover d = bcover(s, {"001", "010"});
  Cover m = esp::minimize_cover(f, d);
  EXPECT_EQ(m.size(), 1);
  EXPECT_EQ(m[0], bcube(s, "0--"));
}

TEST(Minimize, XorNeedsTwoCubes) {
  CubeSpace s = CubeSpace::binary(2);
  Cover f = bcover(s, {"01", "10"});
  Cover m = esp::minimize_cover(f, Cover(s));
  EXPECT_EQ(m.size(), 2);
  EXPECT_TRUE(test::same_function(m, f));
}

TEST(Minimize, GivenOffSetMintermsGiveTheSameCover) {
  // The off-set overload depends on R only as a set: handing it the
  // off-set's minterms reproduces the complement-based run exactly.
  CubeSpace s = CubeSpace::binary(5);
  std::mt19937 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    Cover f = test::random_cover(s, 2 + trial % 6, rng);
    Cover d = test::random_cover(s, trial % 3, rng);
    Cover fd = f;
    fd.append(d);
    Cover r(s);
    Cover::for_each_minterm(s, [&](const std::vector<int>& values) {
      if (fd.covers_minterm(values)) return;
      Cube m = Cube::full(s);
      for (int v = 0; v < s.num_vars(); ++v) m.set_binary(s, v, values[v]);
      r.add(m);
    });
    esp::EspressoResult computed = esp::minimize(f, d);
    esp::EspressoResult given = esp::minimize(f, d, r);
    EXPECT_EQ(given.cover.cubes(), computed.cover.cubes()) << "trial " << trial;
    EXPECT_EQ(given.iterations, computed.iterations) << "trial " << trial;
  }
}

TEST(Minimize, EmptyOnset) {
  CubeSpace s = CubeSpace::binary(3);
  Cover m = esp::minimize_cover(Cover(s), Cover(s));
  EXPECT_TRUE(m.empty());
}

TEST(Minimize, TautologyOnset) {
  CubeSpace s = CubeSpace::binary(3);
  Cover f = bcover(s, {"0--", "1--"});
  Cover m = esp::minimize_cover(f, Cover(s));
  ASSERT_EQ(m.size(), 1);
  EXPECT_EQ(m[0], Cube::full(s));
}

TEST(Minimize, MultiOutputSharing) {
  // Two outputs sharing a product term.  Inputs x0 x1, output var with 2
  // parts.  f0 = x0 x1, f1 = x0 x1  ->  one cube asserting both outputs.
  CubeSpace s = CubeSpace::fsm_layout(2, 0, 2);
  Cover f(s);
  Cube a = Cube::full(s);
  a.set_binary(s, 0, 1);
  a.set_binary(s, 1, 1);
  a.set(s, 2, 1, false);  // assert output 0 only
  f.add(a);
  Cube b = Cube::full(s);
  b.set_binary(s, 0, 1);
  b.set_binary(s, 1, 1);
  b.set(s, 2, 0, false);  // assert output 1 only
  f.add(b);
  Cover m = esp::minimize_cover(f, Cover(s));
  ASSERT_EQ(m.size(), 1);
  EXPECT_TRUE(m[0].var_full(s, 2));
}

TEST(Minimize, MvSymbolicVariable) {
  // One 4-valued symbolic variable; onset = parts {0,1} and {2}; the
  // minimizer should merge {0,1,2} only if the function allows; here
  // keeping two cubes but possibly merging into one literal {0,1,2}.
  CubeSpace s = CubeSpace::multi_valued({4, 2});
  Cover f(s);
  for (int p : {0, 1, 2}) {
    Cube c = Cube::full(s);
    c.clear_var(s, 0);
    c.set(s, 0, p);
    c.set(s, 1, 0, false);  // second var = 1
    f.add(c);
  }
  Cover m = esp::minimize_cover(f, Cover(s));
  ASSERT_EQ(m.size(), 1);
  EXPECT_EQ(m[0].var_popcount(s, 0), 3);
  EXPECT_TRUE(test::same_function(m, f));
}

}  // namespace
}  // namespace picola
