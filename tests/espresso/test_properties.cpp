// Property-based sweeps: minimisation must preserve the function, produce
// implicant covers (disjoint from the off-set), be irredundant, and never
// increase the cube count.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "espresso/espresso.h"

namespace picola {
namespace {

struct RandomCase {
  uint32_t seed;
  int nvars;
  int ncubes;
  int ndc;
};

class MinimizeProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(MinimizeProperty, SoundAndIrredundant) {
  const RandomCase& rc = GetParam();
  std::mt19937 rng(rc.seed);
  CubeSpace s = CubeSpace::binary(rc.nvars);
  Cover f = test::random_cover(s, rc.ncubes, rng);
  Cover d = test::random_cover(s, rc.ndc, rng, 0.2);
  f.remove_empty();
  d.remove_empty();

  Cover m = esp::minimize_cover(f, d);

  // 1. No growth.
  Cover fs = f;
  fs.remove_contained();
  EXPECT_LE(m.size(), fs.size());

  // 2. Function preserved modulo dc-set: m covers f\d and m ⊆ f∪d.
  Cover::for_each_minterm(s, [&](const std::vector<int>& mt) {
    bool in_f = f.covers_minterm(mt);
    bool in_d = d.covers_minterm(mt);
    bool in_m = m.covers_minterm(mt);
    if (in_f && !in_d) {
      EXPECT_TRUE(in_m) << "lost onset minterm";
    }
    if (!in_f && !in_d) {
      EXPECT_FALSE(in_m) << "covered offset minterm";
    }
  });

  // 3. Irredundant: no cube may be dropped.
  for (int i = 0; i < m.size(); ++i) {
    Cover rest(s);
    for (int j = 0; j < m.size(); ++j)
      if (j != i) rest.add(m[j]);
    rest.append(d);
    EXPECT_FALSE(esp::cover_contains_cube(rest, m[i]))
        << "cube " << i << " is redundant";
  }

  // 4. Primality: each cube expanded in any direction hits the off-set.
  Cover r = esp::complement_fd(f, d);
  for (const Cube& c : m.cubes()) {
    for (int v = 0; v < s.num_vars(); ++v) {
      for (int p = 0; p < s.parts(v); ++p) {
        if (c.test(s, v, p)) continue;
        Cube raised = c;
        raised.set(s, v, p);
        bool hits_offset = false;
        for (const Cube& rc2 : r.cubes())
          if (raised.distance(rc2, s) == 0) hits_offset = true;
        EXPECT_TRUE(hits_offset) << "cube not prime";
      }
    }
  }
}

std::vector<RandomCase> MakeCases() {
  std::vector<RandomCase> cases;
  uint32_t seed = 1000;
  for (int nvars : {2, 3, 4, 5, 6}) {
    for (int ncubes : {1, 3, 6, 12}) {
      for (int ndc : {0, 2}) {
        cases.push_back({seed++, nvars, ncubes, ndc});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, MinimizeProperty,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<RandomCase>& info) {
                           const auto& c = info.param;
                           std::string name = "v";
                           name += std::to_string(c.nvars);
                           name += "_c";
                           name += std::to_string(c.ncubes);
                           name += "_d";
                           name += std::to_string(c.ndc);
                           name += "_s";
                           name += std::to_string(c.seed);
                           return name;
                         });

class MvMinimizeProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MvMinimizeProperty, MultiValuedSoundness) {
  std::mt19937 rng(GetParam());
  CubeSpace s = CubeSpace::multi_valued({2, 2, 5, 3});
  Cover f = test::random_cover(s, 5, rng, 0.4);
  Cover d = test::random_cover(s, 1, rng, 0.1);
  Cover m = esp::minimize_cover(f, d);
  Cover::for_each_minterm(s, [&](const std::vector<int>& mt) {
    bool in_f = f.covers_minterm(mt);
    bool in_d = d.covers_minterm(mt);
    bool in_m = m.covers_minterm(mt);
    if (in_f && !in_d) {
      EXPECT_TRUE(in_m);
    }
    if (!in_f && !in_d) {
      EXPECT_FALSE(in_m);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvMinimizeProperty,
                         ::testing::Range(2000u, 2030u));

TEST(EquivalentCheck, DetectsEquivalenceAndDifference) {
  CubeSpace s = CubeSpace::binary(3);
  Cover a = test::bcover(s, {"00-", "01-"});
  Cover b = test::bcover(s, {"0--"});
  Cover c = test::bcover(s, {"0-1"});
  EXPECT_TRUE(esp::equivalent(a, b, Cover(s)));
  EXPECT_FALSE(esp::equivalent(a, c, Cover(s)));
  // Equivalence modulo dc: a ≡ c when 0-0 is don't care.
  Cover d = test::bcover(s, {"0-0"});
  EXPECT_TRUE(esp::equivalent(a, c, d));
}

}  // namespace
}  // namespace picola
