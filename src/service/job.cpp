#include "service/job.h"

#include <algorithm>
#include <bit>

namespace picola {

namespace {

/// FNV-1a with a 64-bit avalanche finisher (splitmix64) applied by
/// callers that want a final mix; plain FNV-1a is fine for incremental
/// word hashing here.
struct Hasher {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<uint64_t>(d)); }

  uint64_t finish() const {
    // splitmix64 finisher: spreads the FNV state over all 64 bits.
    uint64_t z = h + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

bool options_equal(const PicolaOptions& a, const PicolaOptions& b) {
  return a.use_guides == b.use_guides && a.use_classify == b.use_classify &&
         a.greedy_continue == b.greedy_continue &&
         a.unweighted == b.unweighted && a.num_bits == b.num_bits &&
         a.guide.recursive == b.guide.recursive &&
         a.tie_break_seed == b.tie_break_seed &&
         a.self_check == b.self_check;
}

/// The canonical form of `set`: every group re-added through add() (sorts
/// members, merges duplicate groups, drops trivial ones), then the groups
/// ordered by members, so any permutation of one problem gives one set.
ConstraintSet normalized(const ConstraintSet& set) {
  ConstraintSet canon;
  canon.num_symbols = set.num_symbols;
  for (const FaceConstraint& f : set.constraints)
    canon.add(f.members, f.weight);
  std::sort(canon.constraints.begin(), canon.constraints.end(),
            [](const FaceConstraint& a, const FaceConstraint& b) {
              return a.members < b.members;
            });
  return canon;
}

/// Mixes the groups of a normalized set.
void mix_groups(Hasher& h, const ConstraintSet& canon) {
  for (const FaceConstraint& f : canon.constraints) {
    h.mix(static_cast<uint64_t>(f.members.size()));
    for (int m : f.members) h.mix(static_cast<uint64_t>(m));
    h.mix_double(f.weight);
  }
}

}  // namespace

bool CanonicalJob::equivalent(const CanonicalJob& other) const {
  if (restarts != other.restarts ||
      set.num_symbols != other.set.num_symbols ||
      set.constraints.size() != other.set.constraints.size() ||
      !options_equal(options, other.options) ||
      !portfolio::portfolio_options_equal(portfolio, other.portfolio))
    return false;
  for (size_t i = 0; i < set.constraints.size(); ++i) {
    const FaceConstraint& a = set.constraints[i];
    const FaceConstraint& b = other.set.constraints[i];
    if (a.members != b.members || a.weight != b.weight) return false;
  }
  return true;
}

CanonicalJob canonicalize(const Job& job) {
  CanonicalJob c;
  c.options = job.options;
  // The cancel token and the tie hook never affect the result of a run
  // that completes, so they are stripped from the canonical form: cache
  // entries must not pin (or compare) request-lifetime state.  The
  // service captures the token from the original Job before
  // canonicalising, and installs its own hook on restart 0.
  c.options.cancel.reset();
  c.options.on_first_tie = nullptr;
  c.restarts = std::max(1, job.restarts);
  c.set = normalized(job.set);

  Hasher h;
  h.mix(static_cast<uint64_t>(c.set.num_symbols));
  h.mix(static_cast<uint64_t>(c.restarts));
  const PicolaOptions& o = c.options;
  h.mix(static_cast<uint64_t>(o.use_guides) | (uint64_t{o.use_classify} << 1) |
        (uint64_t{o.greedy_continue} << 2) | (uint64_t{o.unweighted} << 3) |
        (uint64_t{o.guide.recursive} << 4) |
        (uint64_t{o.self_check} << 5));
  // The cost-function weights are constants; they stay in the key so
  // that keys are unchanged.
  h.mix_double(kProgressWeight);
  h.mix_double(kSizeWeight);
  h.mix_double(kInfeasibleWeightFactor);
  h.mix_double(kGuideWeightFactor);
  h.mix(static_cast<uint64_t>(o.num_bits));
  h.mix(o.tie_break_seed);
  // Backend selection and knobs all change the result, so all of them
  // are part of the key (results from different backends must never
  // answer each other's cache lookups).  The SAT reduction has one
  // configuration; its three constants stay in the word so that keys
  // are unchanged.
  c.portfolio = job.portfolio;
  h.mix(static_cast<uint64_t>(c.portfolio.backend) |
        (static_cast<uint64_t>(sat::CardEncoding::kSequential) << 8) |
        (static_cast<uint64_t>(sat::DistinctEncoding::kDifference) << 16) |
        (static_cast<uint64_t>(sat::SweepMode::kDescending) << 24));
  h.mix(static_cast<uint64_t>(c.portfolio.sat_max_conflicts));
  h.mix(c.portfolio.anneal_seed);
  mix_groups(h, c.set);
  c.fingerprint = h.finish();
  return c;
}

uint64_t encoding_fingerprint(const Encoding& enc) {
  Hasher h;
  h.mix(static_cast<uint64_t>(enc.num_symbols));
  h.mix(static_cast<uint64_t>(enc.num_bits));
  for (uint32_t code : enc.codes) h.mix(code);
  return h.finish();
}

uint64_t route_key(const ConstraintSet& set) {
  const ConstraintSet canon = normalized(set);
  Hasher h;
  h.mix(static_cast<uint64_t>(canon.num_symbols));
  mix_groups(h, canon);
  return h.finish();
}

}  // namespace picola
