// Pins the durable cache's record bytes.  Every Table I constraint set is
// canonicalised under a grid of jobs (the defaults, each ablation flag
// flipped, a longer code, self-check, 1 and 4 restarts, every backend, a
// smaller SAT budget, another annealer seed) and written by encode_record
// beside one fixed result; all the bytes feed one hash.  A cache dir
// written before a change must load after it, so a change that is meant
// to leave the format alone (writing a removed option as its constant)
// must keep this constant.  A change that moves a byte updates it in the
// same commit and bumps persist::kFormatVersion.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "persist/codec.h"
#include "service/job.h"
#include "service/result_cache.h"

namespace picola::persist {
namespace {

/// FNV-1a over bytes.
struct ByteHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(const std::string& bytes) {
    for (char c : bytes) {
      h ^= static_cast<uint8_t>(c);
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

CachedResult fixed_result() {
  CachedResult r;
  r.total_cubes = 17;
  r.backend = portfolio::BackendKind::kSat;
  r.picola.encoding.num_symbols = 5;
  r.picola.encoding.num_bits = 3;
  r.picola.encoding.codes = {0, 3, 5, 6, 1};
  r.picola.stats.guides_added = 2;
  r.picola.stats.constraints_deactivated = 1;
  r.picola.stats.infeasible_per_column = {0, 2, 1};
  r.picola.stats.infeasible_events = {{1, 0}, {1, 4}, {2, 6}};
  r.picola.stats.satisfied_constraints = 4;
  r.picola.stats.classify_calls = 3;
  r.picola.stats.column_ms = {0.25, 0.5, 0.125};
  r.picola.stats.classify_ms = 0.375;
  r.picola.stats.guide_ms = 0.0625;
  r.picola.stats.solve_ms = 0.75;
  return r;
}

TEST(RecordPin, TableOneJobGrid) {
  const auto grid = job_grid();
  const CachedResult result = fixed_result();
  ByteHash h;
  for (const std::string& name : table1_benchmarks()) {
    const ConstraintSet set = derive_face_constraints(make_benchmark(name)).set;
    for (const auto& edit : grid) {
      Job j;
      j.set = set;
      edit(j);
      h.mix(encode_record(canonicalize(j), result));
    }
  }
  EXPECT_EQ(hex(h.h), "0xfe19b8f74dbdc99f");
}

}  // namespace
}  // namespace picola::persist
