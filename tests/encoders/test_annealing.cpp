#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "check/instance_gen.h"
#include "constraints/derive.h"
#include "constraints/dichotomy.h"
#include "encoders/annealing.h"
#include "encoders/trivial.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"

namespace picola {
namespace {

ConstraintSet demo_set() {
  ConstraintSet cs;
  cs.num_symbols = 8;
  cs.add({0, 1});
  cs.add({2, 3, 4, 5});
  cs.add({6, 7});
  cs.add({1, 2});
  return cs;
}

TEST(Annealing, ProducesValidEncoding) {
  AnnealingResult r = annealing_encode(demo_set());
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_EQ(r.encoding.num_bits, 3);
  EXPECT_GT(r.moves_tried, 0);
}

TEST(Annealing, DeterministicForFixedSeed) {
  AnnealingOptions opt;
  opt.seed = 5;
  AnnealingResult a = annealing_encode(demo_set(), opt);
  AnnealingResult b = annealing_encode(demo_set(), opt);
  EXPECT_EQ(a.encoding.codes, b.encoding.codes);
  EXPECT_EQ(a.best_score, b.best_score);
}

TEST(Annealing, BeatsSequentialOnStructuredProblem) {
  ConstraintSet cs = demo_set();
  AnnealingResult r = annealing_encode(cs);
  double seq = weighted_dichotomy_score(cs, sequential_encoding(8));
  EXPECT_GE(r.best_score, seq);
  // The demo set is fully satisfiable in 3 bits.
  EXPECT_EQ(count_satisfied_constraints(cs, r.encoding), cs.size());
}

TEST(Annealing, ReportedScoreMatchesEvaluator) {
  ConstraintSet cs = demo_set();
  AnnealingResult r = annealing_encode(cs);
  EXPECT_DOUBLE_EQ(r.best_score, weighted_dichotomy_score(cs, r.encoding));
}

TEST(Annealing, RespectsExplicitWidth) {
  AnnealingOptions opt;
  opt.num_bits = 5;
  AnnealingResult r = annealing_encode(demo_set(), opt);
  EXPECT_EQ(r.encoding.num_bits, 5);
  EXPECT_EQ(r.encoding.validate(), "");
}

TEST(Annealing, WeightedScoreHonoursWeights) {
  ConstraintSet cs;
  cs.num_symbols = 4;
  cs.add({0, 1}, 5.0);
  Encoding good = sequential_encoding(4);  // 00,01 adjacent: satisfied
  EXPECT_DOUBLE_EQ(weighted_dichotomy_score(cs, good), 10.0);  // 2 dich * 5
}

/// FNV-1a over 64-bit words.
struct AnnealHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const AnnealingResult& r) {
    mix(static_cast<uint64_t>(r.encoding.num_bits));
    for (uint32_t c : r.encoding.codes) mix(c);
    mix(std::bit_cast<uint64_t>(r.best_score));
    mix(static_cast<uint64_t>(r.moves_tried));
    mix(static_cast<uint64_t>(r.moves_accepted));
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Annealing, CodesPin) {
  // Pins every RNG draw and accept/reject decision of the annealer: the
  // codes, the best score and the move counts of each run feed one hash.
  // Table I runs on a short schedule (the default one takes tens of
  // seconds on tbk and scf); the generator stream on the default one.
  // The constants were recorded when the annealer still kept a 2^nv
  // occupancy table.
  AnnealHash h;
  long accepted = 0;
  for (const std::string& name : table1_benchmarks()) {
    AnnealingOptions opt;
    opt.moves_per_temp = 32;
    opt.cooling = 0.7;
    AnnealingResult r = annealing_encode(
        derive_face_constraints(make_benchmark(name)).set, opt);
    accepted += r.moves_accepted;
    h.mix(r);
  }
  check::GeneratorOptions g;
  g.max_symbols = 10;
  check::InstanceGenerator gen(20261019, g);
  for (int i = 0; i < 30; ++i) {
    check::InstanceGenerator::Instance inst = gen.next();
    AnnealingOptions opt;
    opt.num_bits = inst.num_bits;
    opt.seed = static_cast<uint64_t>(i) + 1;
    AnnealingResult r = annealing_encode(inst.set, opt);
    accepted += r.moves_accepted;
    h.mix(r);
  }
  EXPECT_EQ(accepted, 187'990);
  EXPECT_EQ(hex(h.h), "0x67cc11daba646008");
}

TEST(Annealing, ThirtyOneBitCodesOnASmallSet) {
  // The longest code length a request may ask for.  The annealer keeps
  // only the n occupied codes, so this runs in a few kilobytes.
  AnnealingOptions opt;
  opt.num_bits = 31;
  AnnealingResult r = annealing_encode(demo_set(), opt);
  EXPECT_EQ(r.encoding.num_bits, 31);
  EXPECT_EQ(r.encoding.validate(), "");
  EXPECT_DOUBLE_EQ(r.best_score,
                   weighted_dichotomy_score(demo_set(), r.encoding));
}

}  // namespace
}  // namespace picola
