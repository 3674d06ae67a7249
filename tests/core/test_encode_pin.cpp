// Pins picola_encode's results.  The codes, the satisfied count and every
// infeasibility event (column, row) of each run feed one hash, so a change
// to the encoder that is meant to leave results bit-identical (the column
// solver's data layout, the order it visits rows or symbols in, scratch
// reuse) must keep these constants.  Every tie-break and every
// floating-point gain sum shows up in the codes.  A change that is meant to
// move results updates the constants in the same commit and says why; it
// also needs a new job fingerprint and persist format version, because
// cached and journaled results would no longer match a fresh encode.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "check/instance_gen.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "kiss/benchmarks.h"

namespace picola {
namespace {

/// FNV-1a over 64-bit words.
struct EncodeHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const PicolaResult& r) {
    mix(static_cast<uint64_t>(r.encoding.num_bits));
    for (uint32_t c : r.encoding.codes) mix(c);
    mix(static_cast<uint64_t>(r.stats.satisfied_constraints));
    mix(r.stats.infeasible_events.size());
    for (auto [col, row] : r.stats.infeasible_events)
      mix(static_cast<uint64_t>(col) << 32 | static_cast<uint32_t>(row));
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const std::vector<ConstraintSet>& table_one_sets() {
  static const std::vector<ConstraintSet> sets = [] {
    std::vector<ConstraintSet> out;
    for (const std::string& name : table1_benchmarks())
      out.push_back(derive_face_constraints(make_benchmark(name)).set);
    return out;
  }();
  return sets;
}

std::string table_one_hash(const PicolaOptions& opt) {
  EncodeHash h;
  for (const ConstraintSet& cs : table_one_sets())
    h.mix(picola_encode(cs, opt));
  return hex(h.h);
}

TEST(EncodePin, TableOneRestarts) {
  // The eight restart seeds a quality-mode job can run, on every Table I
  // set: each restart but the first breaks ties at random.
  EncodeHash h;
  for (const ConstraintSet& cs : table_one_sets())
    for (int r = 0; r < 8; ++r)
      h.mix(picola_encode(cs, picola_restart_options({}, r)));
  EXPECT_EQ(hex(h.h), "0xbc66c51fe63c3138");
}

TEST(EncodePin, GeneratorStream) {
  // Small generated instances (up to 80 symbols, so code words span two
  // 64-bit words) at the minimum code length and two longer ones, with
  // deterministic and random tie-breaking mixed.
  check::GeneratorOptions g;
  g.max_symbols = 80;
  g.max_constraints = 8;
  check::InstanceGenerator gen(20261018, g);
  EncodeHash h;
  for (int i = 0; i < 2000; ++i) {
    check::InstanceGenerator::Instance inst = gen.next();
    const int min_bits = Encoding::min_bits(inst.set.num_symbols);
    for (int extra = 0; extra <= 2; ++extra) {
      PicolaOptions opt;
      opt.num_bits = min_bits + extra;
      opt.tie_break_seed = (i + extra) % 3 == 0 ? 0 : uint64_t(i) * 3 + extra;
      h.mix(picola_encode(inst.set, opt));
    }
  }
  EXPECT_EQ(hex(h.h), "0x2e05472381f2cad1");
}

TEST(EncodePin, TableOneAblations) {
  // Each ablation switch reaches a different branch of Solve() or of
  // Update_constraints().
  PicolaOptions unweighted;
  unweighted.unweighted = true;
  EXPECT_EQ(table_one_hash(unweighted), "0x67859a93cb5056d2");
  PicolaOptions first_valid;
  first_valid.greedy_continue = false;
  EXPECT_EQ(table_one_hash(first_valid), "0x823c506dd229bbe5");
  PicolaOptions no_guides;
  no_guides.use_guides = false;
  EXPECT_EQ(table_one_hash(no_guides), "0xd45ae54ee57ac139");
  PicolaOptions no_classify;
  no_classify.use_classify = false;
  EXPECT_EQ(table_one_hash(no_classify), "0xcceca01a643a8c94");
}

}  // namespace
}  // namespace picola
