#pragma once
// The four serving workloads of the benchmark: their seeded request
// lists, the reference every reply is checked against, and the
// statistics rules every run shares.  Everything here runs outside the
// timed phases.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "constraints/face_constraint.h"
#include "portfolio/backend.h"

namespace perfbench {

/// The seed whose expected replies are committed under expected/.
inline constexpr uint64_t kDefaultSeed = 1;

/// Restarts of every request (the server's default, sent implicitly).
inline constexpr int kRestarts = 4;

/// A latency percentile is reported only with at least this many samples
/// beyond it, so the p90 needs 100 samples.
inline constexpr size_t kSamplesBeyondPercentile = 10;
inline constexpr size_t kMinRequests = 100;

/// SplitMix64.  Its output is fixed by its definition (unlike
/// std::shuffle or std::uniform_int_distribution), so a seed names the
/// same inputs on every platform and the committed expectations hold.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, n), n > 0.
  size_t below(size_t n);
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  uint64_t state_;
};

enum class TextKind { kCon, kKiss };

/// One distinct problem a workload sends.
struct Problem {
  std::string label;  ///< source machine and variant, for reports
  TextKind kind = TextKind::kCon;
  std::string text;  ///< the inline request text (.con or KISS2)
  picola::portfolio::BackendKind backend =
      picola::portfolio::BackendKind::kPicola;
  picola::ConstraintSet set;  ///< what the server derives from `text`
  uint64_t fingerprint = 0;   ///< the server's cache key (service/job.h)
};

/// An ordered request stream drawn by `connections` closed-loop clients
/// through one shared cursor.  A cyclic stream repeats; otherwise the
/// measured phase ends when it runs out.
struct Stream {
  std::vector<size_t> order;  ///< indices into Workload::problems
  bool cycle = false;
  int connections = 1;
};

struct Workload {
  std::string name;
  std::vector<Problem> problems;  ///< distinct canonical fingerprints
  std::vector<Stream> streams;
  /// Sent once per set-up, before the measured phase.
  std::vector<size_t> warmup;
  /// The distinct problems every run serves: cubes_total sums their
  /// cubes and the traced replay runs them.
  std::vector<size_t> quality_set;
  /// The measured phase completes at least this many requests.
  size_t min_requests = kMinRequests;
  /// hot_con: an earlier server lifetime on the same cache dir computes
  /// every problem, so the measured server starts warm.
  bool primed = false;
};

const std::vector<std::string>& workload_names();

/// Build `name` for `seed`.  Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, uint64_t seed);

/// Relabel the symbols of `set` by `perm` (symbol s becomes perm[s]).
picola::ConstraintSet relabel(const picola::ConstraintSet& set,
                              const std::vector<int>& perm);

/// Parse `text` as the server does and fill set + fingerprint.  Throws
/// std::runtime_error when the text does not parse.
void resolve(Problem* p);

/// Append `p` unless a problem with its fingerprint is already in
/// `seen`; returns the new index or nullopt for a duplicate.
std::optional<size_t> add_distinct(std::vector<Problem>* problems,
                                   std::unordered_set<uint64_t>* seen,
                                   Problem p);

/// Number of backend slots a request of `p` fans out to.
size_t slots_per_job(const Problem& p);

// --- reference check -----------------------------------------------------

struct Expected {
  uint64_t enc = 0;  ///< encoding_fingerprint of the winner
  long cubes = 0;
};

/// Expected replies keyed by canonical fingerprint.
using Reference = std::unordered_map<uint64_t, Expected>;

/// The sequential portfolio_encode of `p` (service/job.h fingerprints
/// the same request, so its reply must match bit for bit).
Expected reference_result(const Problem& p);

/// Fill `ref` for every listed problem it lacks, on `threads` threads.
void compute_reference(const Workload& w, const std::vector<size_t>& which,
                       int threads, Reference* ref);

/// Read / write an expected/<workload>.tsv table (`fp enc cubes` in hex,
/// hex, decimal; '#' comments).
std::optional<Reference> load_reference(const std::string& path,
                                        std::string* error);
bool save_reference(const std::string& path, const std::string& header,
                    const Workload& w, const Reference& ref);

/// True when the reply matches the reference entry for `fingerprint`;
/// a problem with no entry never matches.
bool reply_matches(const Reference& ref, uint64_t fingerprint, uint64_t enc,
                   long cubes);

// --- statistics -----------------------------------------------------------

/// True when `n` samples leave kSamplesBeyondPercentile beyond the p-th
/// percentile.
bool percentile_supported(double p, size_t n);

/// Nearest-rank percentile (p in (0, 100]) of `values`, where a failed
/// request counts as +infinity; nullopt when the sample cannot support
/// it.
std::optional<double> percentile(std::vector<double> values, double p);

/// Plain median (no sample guard), for per-layer figures; 0 when empty.
double median(std::vector<double> values);

/// The measured phase keeps going until both the time is up and enough
/// requests completed (the p90 sample guard), or a hard cap is hit.
bool phase_done(double elapsed_s, size_t completed, double seconds,
                size_t min_requests, double hard_cap_s);

}  // namespace perfbench
