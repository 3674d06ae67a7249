#pragma once
// What one pass against a server recorded, and the benchmark's metrics
// computed from it: the end-to-end set (untraced runs) and the per-layer
// set (traced runs).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/json.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {

/// One request as the closed-loop client saw it.
struct Reply {
  uint64_t id = 0;  ///< the request's wire id
  size_t problem = 0;
  int conn = 0;
  double start_ms = 0;  ///< since the phase started
  double latency_ms = 0;
  bool ok = false;  ///< the server answered ok
  std::string error;
  uint64_t enc = 0;
  long cubes = 0;
  bool cached = false;
  double wall_ms = 0;
  picola::portfolio::BackendKind backend =
      picola::portfolio::BackendKind::kPicola;  ///< the winning backend
  int bits = 0;
  size_t bytes = 0;
  bool good = false;  ///< ok and equal to the reference (mark_good)
};

/// One server's worth of a workload: set-ups, then the measured phase.
struct Pass {
  std::vector<double> setup_s;
  std::vector<Reply> warmup;  ///< the last set-up's warm-up replies
  std::vector<Reply> measured;
  double elapsed_s = 0;
  double cpu_s = 0;
  std::vector<double> rss_mb;  ///< VmRSS samples over the measured phase
  double peak_rss_mb = 0;      ///< VmHWM at its end
  bool exhausted = false;
  int lifetimes = 0;
  std::vector<std::string> faults;  ///< lifecycle and set-up failures
  // Traced pass only.
  std::vector<double> ping_ms;
  std::optional<picola::net::JsonValue> metrics_before, metrics_after;
  double shutdown_ms = 0;
  std::vector<double> recover_ms;
  size_t recovered_entries = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts)
};

/// A failed request's latency in the JSON result, which has no infinity.
inline constexpr double kFailedLatencyMs = 1e9;

struct EndToEnd {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> faults;  ///< anything that makes the run incorrect
};

/// Property shares a later change can cite ("applies to X% of W").
struct Properties {
  double hit_share = 0;
  double derive_repeat_share = 0;
  double nv_le7_share = 0;
  double slots_per_job = 0;
};

double value_of(const std::vector<Metric>& ms, const std::string& name);
std::string fmt(double v);

/// Set Reply::good: an ok reply whose enc and cubes equal the reference.
void mark_good(const Workload& w, const Reference& ref,
               std::vector<Reply>* replies);

/// The eight end-to-end metrics of a pass (replies already marked).  A
/// request that failed or differs from the reference counts as failed and
/// as +infinity latency.
EndToEnd end_to_end(const Workload& w, const Pass& pass, const Reference& ref,
                    bool default_seed);

Properties properties(const Workload& w, const Pass& pass);

/// The per-layer metrics of a traced pass and the replay.
std::vector<Metric> per_layer(const Workload& w, const Pass& pass,
                              const ReplayFigures& f);

}  // namespace perfbench
