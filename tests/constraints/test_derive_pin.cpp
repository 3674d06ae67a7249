// Pins derive_face_constraints' results.  Every registered benchmark
// profile and a seeded stream of generated machines feed one hash: the
// minimised symbolic cover's cube words in order, and the derived
// constraint set's members, weights and order.  A change to the cube
// library or to ESPRESSO that is meant to leave results bit-identical
// (storage layout, scratch reuse, word-parallel scans) must keep this
// constant.  A change that is meant to move results updates it in the same
// commit and says why.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "kiss/generator.h"

namespace picola {
namespace {

/// FNV-1a over 64-bit words.
struct DeriveHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const DerivedConstraints& d) {
    mix(static_cast<uint64_t>(d.minimized.size()));
    for (const Cube& c : d.minimized.cubes())
      for (int w = 0; w < c.num_words(); ++w) mix(c.word(w));
    mix(static_cast<uint64_t>(d.set.num_symbols));
    mix(static_cast<uint64_t>(d.set.size()));
    for (const FaceConstraint& c : d.set.constraints) {
      mix(c.members.size());
      for (int m : c.members) mix(static_cast<uint64_t>(m));
      mix(std::bit_cast<uint64_t>(c.weight));
    }
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(DerivePin, BenchmarkProfiles) {
  // Spaces from 1 word (lion) to 6 (scf: 121 states, 352 parts).
  DeriveHash h;
  for (const BenchmarkProfile& p : benchmark_profiles())
    h.mix(derive_face_constraints(make_benchmark(p.name)));
  EXPECT_EQ(hex(h.h), "0xe51bb0c6a96cb314");
}

TEST(DerivePin, GeneratorStream) {
  // Small to mid-sized machines: 3-40 states, 1-6 inputs and outputs, so
  // the symbolic spaces take 1 to 2 words, with the cluster structure and
  // sharing probability varied.
  DeriveHash h;
  for (int i = 0; i < 60; ++i) {
    GeneratorParams p;
    p.seed = 20261019 + static_cast<uint64_t>(i);
    p.num_inputs = 1 + i % 6;
    p.num_outputs = 1 + (i / 2) % 6;
    p.num_states = 3 + (i * 7) % 38;
    p.target_products = 4 * p.num_states + (i % 5) * 6;
    p.cluster_size = 2 + i % 5;
    p.shared_rule_prob = 0.3 + 0.1 * (i % 6);
    h.mix(derive_face_constraints(
        generate_fsm(p, "pin" + std::to_string(i))));
  }
  EXPECT_EQ(hex(h.h), "0x956ba5946e2dfd24");
}

}  // namespace
}  // namespace picola
