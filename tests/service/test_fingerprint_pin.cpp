// Pins the service's cache and routing keys.  Every Table I constraint set
// is canonicalised under a grid of jobs (the defaults, each ablation flag
// flipped, a longer code, self-check, 1 and 4 restarts, every backend, a
// smaller SAT budget, another annealer seed); each job's fingerprint and
// each set's route_key feed one hash.  Cached results, journaled records,
// perfbench's expected replies and cluster placement are all keyed on
// these values, so a change that is meant to leave them alone (moving an
// option into a constant, sharing the set normalisation) must keep this
// constant.  A change that is meant to move a key updates it in the same
// commit, says why, and bumps persist::kFormatVersion.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "service/job.h"

namespace picola {
namespace {

/// FNV-1a over 64-bit words.
struct KeyHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One edit of the default job per grid point.
std::vector<std::function<void(Job&)>> job_grid() {
  using portfolio::BackendKind;
  return {
      [](Job&) {},
      [](Job& j) { j.options.use_guides = false; },
      [](Job& j) { j.options.use_classify = false; },
      [](Job& j) { j.options.greedy_continue = false; },
      [](Job& j) { j.options.unweighted = true; },
      [](Job& j) {
        j.options.num_bits = Encoding::min_bits(j.set.num_symbols) + 1;
      },
      [](Job& j) { j.options.self_check = true; },
      [](Job& j) { j.restarts = 1; },
      [](Job& j) { j.restarts = 4; },
      [](Job& j) { j.portfolio.backend = BackendKind::kPicola; },
      [](Job& j) { j.portfolio.backend = BackendKind::kSat; },
      [](Job& j) { j.portfolio.backend = BackendKind::kAnneal; },
      [](Job& j) { j.portfolio.backend = BackendKind::kPortfolio; },
      [](Job& j) { j.portfolio.sat_max_conflicts = 2'000; },
      [](Job& j) { j.portfolio.anneal_seed = 7; },
  };
}

TEST(FingerprintPin, TableOneJobGrid) {
  const auto grid = job_grid();
  KeyHash h;
  for (const std::string& name : table1_benchmarks()) {
    const ConstraintSet set = derive_face_constraints(make_benchmark(name)).set;
    h.mix(route_key(set));
    for (const auto& edit : grid) {
      Job j;
      j.set = set;
      edit(j);
      h.mix(canonicalize(j).fingerprint);
    }
  }
  EXPECT_EQ(hex(h.h), "0xec5570d0ad3a8aba");
}

}  // namespace
}  // namespace picola
