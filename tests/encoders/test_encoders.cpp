#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "check/instance_gen.h"
#include "check/oracle.h"
#include "constraints/dichotomy.h"
#include "encoders/enc_like.h"
#include "encoders/nova_like.h"
#include "encoders/trivial.h"
#include "eval/constraint_eval.h"

namespace picola {
namespace {

ConstraintSet small_set() {
  ConstraintSet cs;
  cs.num_symbols = 6;
  cs.add({0, 1});
  cs.add({2, 3});
  cs.add({1, 2, 4});
  return cs;
}

TEST(Encoding, ResolveBitsChecksTheRequestedLength) {
  EXPECT_EQ(Encoding::resolve_bits(8, 0, "test"), 3);
  EXPECT_EQ(Encoding::resolve_bits(8, 31, "test"), 31);
  EXPECT_EQ(Encoding::resolve_bits(8, 2, "test", /*allow_short=*/true), 2);
  auto message = [](int bits) {
    try {
      Encoding::resolve_bits(8, bits, "test");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(-1), "test: negative code length");
  EXPECT_EQ(message(32), "test: code length 32 exceeds 31 bits");
  EXPECT_EQ(message(2), "test: code length 2 too small for 8 symbols");
  // Every encoder resolves its length there, so none runs short.
  EXPECT_THROW(sequential_encoding(8, 2), std::invalid_argument);
  EXPECT_THROW(gray_encoding(8, 2), std::invalid_argument);
  EXPECT_THROW(random_encoding(8, 1, 2), std::invalid_argument);
  ConstraintSet cs = small_set();
  NovaLikeOptions nova;
  nova.num_bits = 2;
  EXPECT_THROW(nova_like_encode(cs, nova), std::invalid_argument);
}

TEST(TrivialEncoders, SequentialGrayRandomAreValid) {
  for (int n : {2, 3, 5, 8, 13}) {
    EXPECT_EQ(sequential_encoding(n).validate(), "");
    EXPECT_EQ(gray_encoding(n).validate(), "");
    EXPECT_EQ(random_encoding(n, 42).validate(), "");
  }
}

TEST(TrivialEncoders, GrayAdjacentCodesDifferInOneBit) {
  Encoding e = gray_encoding(8);
  for (int i = 1; i < 8; ++i) {
    uint32_t x = e.code(i) ^ e.code(i - 1);
    EXPECT_EQ(x & (x - 1), 0u);  // power of two
  }
}

TEST(TrivialEncoders, RandomIsSeedDeterministic) {
  EXPECT_EQ(random_encoding(10, 7).codes, random_encoding(10, 7).codes);
  EXPECT_NE(random_encoding(10, 7).codes, random_encoding(10, 8).codes);
}

TEST(NovaLike, ValidEncodingAndEmbedsEasyConstraints) {
  NovaLikeResult r = nova_like_encode(small_set());
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_EQ(r.encoding.num_bits, 3);
  // {0,1} and {2,3} easily fit in B^3 together.
  EXPECT_GE(r.embedded_constraints, 2);
  EXPECT_EQ(count_satisfied_constraints(small_set(), r.encoding),
            r.embedded_constraints);
}

TEST(NovaLike, EmbeddedConstraintsAreActuallySatisfied) {
  ConstraintSet cs = small_set();
  NovaLikeResult r = nova_like_encode(cs);
  int satisfied = count_satisfied_constraints(cs, r.encoding);
  EXPECT_EQ(satisfied, r.embedded_constraints);
}

TEST(NovaLike, SkipsImpossibleConstraintGracefully) {
  // 4 symbols in B^2: {0,1,2} cannot be embedded (no spare code).
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1, 2});
  NovaLikeResult r = nova_like_encode(cs);
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_EQ(r.skipped_constraints, 1);
}

TEST(NovaLike, IoFlavourKeepsSatisfiedConstraints) {
  ConstraintSet cs = small_set();
  NovaLikeOptions opt;
  opt.adjacency = {{0, 5, 3.0}, {1, 4, 2.0}};
  NovaLikeResult plain = nova_like_encode(cs);
  NovaLikeResult io = nova_like_encode(cs, opt);
  EXPECT_EQ(io.encoding.validate(), "");
  EXPECT_GE(count_satisfied_constraints(cs, io.encoding),
            count_satisfied_constraints(cs, plain.encoding));
}

TEST(EncLike, ValidAndRefinementNeverHurts) {
  ConstraintSet cs = small_set();
  EncLikeOptions fast;
  fast.minimize_in_loop = false;
  EncLikeOptions full;
  EncLikeResult r1 = enc_like_encode(cs, fast);
  EncLikeResult r2 = enc_like_encode(cs, full);
  EXPECT_EQ(r1.encoding.validate(), "");
  EXPECT_EQ(r2.encoding.validate(), "");
  EXPECT_LE(evaluate_constraints(cs, r2.encoding).total_cubes,
            evaluate_constraints(cs, r1.encoding).total_cubes);
  EXPECT_GT(r2.espresso_calls, 0);
}

// The exact encoder is the exhaustive oracle run with the exact
// encoder's candidate cap: its witnesses are optimal encodings.
check::OracleResult exact_encode(const ConstraintSet& cs, int num_bits = 0,
                                 long max_candidates =
                                     check::kExactEncoderCandidates) {
  check::OracleOptions opt;
  opt.max_candidates = max_candidates;
  opt.min_cubes = true;
  return check::oracle_solve(cs, num_bits, opt);
}

TEST(Exact, FindsOptimumOnTinyProblem) {
  // 4 symbols in B^2 with constraints {0,1} and {2,3}: both satisfiable
  // simultaneously -> optimal total = 2 cubes.
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});
  cs.add({2, 3});
  check::OracleResult r = exact_encode(cs);
  EXPECT_EQ(r.min_total_cubes, 2);
  EXPECT_EQ(evaluate_constraints(cs, r.min_cubes_encoding).total_cubes, 2);
}

TEST(Exact, MaxSatisfiedObjective) {
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1});
  cs.add({1, 2});
  check::OracleResult r = exact_encode(cs);
  // Both are satisfiable: place 1 adjacent to both 0 and 2.
  EXPECT_EQ(r.max_satisfied, 2);
  EXPECT_EQ(count_satisfied_constraints(cs, r.max_satisfied_encoding), 2);
}

TEST(Exact, ThrowsOnOversizedProblem) {
  ConstraintSet cs;
  cs.num_symbols = 20;
  EXPECT_THROW(exact_encode(cs, 0, 1000), std::invalid_argument);
}

TEST(Exact, HeuristicsNeverBeatExact) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    int n = 5 + static_cast<int>(rng() % 2);  // 5..6 symbols
    ConstraintSet cs;
    cs.num_symbols = n;
    for (int k = 0; k < 3; ++k) {
      std::vector<int> members;
      for (int s = 0; s < n; ++s)
        if (rng() % 2) members.push_back(s);
      cs.add(std::move(members));
    }
    check::OracleResult best = exact_encode(cs);
    for (int cost :
         {evaluate_constraints(cs, nova_like_encode(cs).encoding).total_cubes,
          evaluate_constraints(cs, enc_like_encode(cs).encoding).total_cubes}) {
      EXPECT_GE(cost, best.min_total_cubes);
    }
  }
}

/// FNV-1a over 64-bit words.
struct WitnessHash {
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
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Exact, WitnessPin) {
  // Pins the exact encoder's answers over a seeded stream of 3-8 symbol
  // instances at the minimum length and one bit more: the first
  // encoding in enumeration order with the most satisfied constraints
  // and, where there are at most 1,000 candidates, the first with the
  // fewest cubes.  Instances over 5,040 candidates (8 symbols in 3 bits)
  // are skipped to keep the test fast.  The constants were recorded
  // from the separate exact encoder this oracle replaced.
  check::GeneratorOptions g;
  g.min_symbols = 3;
  g.max_symbols = 8;
  g.max_extra_bits = 1;
  check::InstanceGenerator gen(20261019, g);
  WitnessHash h;
  int pinned = 0, min_cubes = 0;
  for (int i = 0; i < 200; ++i) {
    check::InstanceGenerator::Instance inst = gen.next();
    const int n = inst.set.num_symbols;
    const int nv =
        inst.num_bits > 0 ? inst.num_bits : Encoding::min_bits(n);
    long candidates = 1;
    for (int s = 1; s < n; ++s) candidates *= (1L << nv) - s;
    if (candidates > 5'040) continue;
    check::OracleOptions opt;
    opt.max_candidates = check::kExactEncoderCandidates;
    opt.min_cubes = candidates <= 1'000;
    check::OracleResult r = check::oracle_solve(inst.set, inst.num_bits, opt);
    h.mix(r.max_satisfied_encoding);
    h.mix(static_cast<uint64_t>(r.max_satisfied));
    if (opt.min_cubes) {
      h.mix(r.min_cubes_encoding);
      h.mix(static_cast<uint64_t>(r.min_total_cubes));
      ++min_cubes;
    }
    ++pinned;
  }
  EXPECT_EQ(pinned, 130);
  EXPECT_EQ(min_cubes, 88);
  EXPECT_EQ(hex(h.h), "0x7b342e50c0984b0e");
}

}  // namespace
}  // namespace picola
