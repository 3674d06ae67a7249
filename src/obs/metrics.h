#pragma once
// picola::obs — low-overhead process metrics: named counters, gauges and
// log2-bucketed histograms collected in a MetricsRegistry.
//
// The write path is lock-free: each Counter/Histogram is striped over
// kStripes cache-line-aligned cells and a thread picks its cell once
// (thread-local stripe index), so concurrent writers touch different
// cache lines and never block.  Reads (snapshot(), report_*()) sum the
// stripes with relaxed loads — totals are exact once the writers are
// quiescent, approximate while they run.  Registration (name -> metric)
// takes a mutex, but it happens once per name; the returned references
// stay valid for the registry's lifetime, including across reset().
//
// By convention every histogram in this codebase records durations in
// nanoseconds (the tracer feeds span durations here); the text report
// renders them as milliseconds.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace picola::obs {

/// Monotonic clock in nanoseconds.  All obs timestamps come from here so
/// a test can substitute a deterministic clock.
uint64_t now_ns();

/// Replace the clock used by now_ns(); nullptr restores steady_clock.
void set_clock_for_testing(uint64_t (*fn)());

namespace detail {
extern std::atomic<bool> g_enabled;  ///< storage behind enabled()
}

/// Master runtime switch of the *global* instrumentation macros
/// (obs/obs.h).  Off by default; when off a span costs one relaxed load
/// (inline — the check must not be a function call, see the bench gate).
/// Metrics written directly through a registry (e.g. the service's own
/// counters) are not affected.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

inline constexpr int kStripes = 16;

/// This thread's stripe (assigned round-robin on first use).
size_t stripe_index();

/// Monotone counter, exact under any number of concurrent writers.
class Counter {
 public:
  void add(uint64_t n = 1) {
    cells_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_{};
};

/// Last-value-wins gauge (low write rate, a single atomic is enough).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raise to `v` if larger (high-water marks).
  void max_of(int64_t v);
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

inline constexpr int kHistogramBuckets = 64;

/// Log2-bucketed histogram: bucket i counts values v with bit_width(v)
/// == i, i.e. v == 0 lands in bucket 0 and v in [2^(i-1), 2^i) in
/// bucket i.  Exact count/sum/max; percentiles are bucket upper bounds.
class Histogram {
 public:
  Histogram();
  void record(uint64_t v);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
    }
    /// Upper bound of the bucket holding the p-quantile (p in [0, 1]).
    uint64_t percentile(double p) const;
  };
  Snapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets;
    std::atomic<uint64_t> count;
    std::atomic<uint64_t> sum;
    std::atomic<uint64_t> max;
  };
  std::unique_ptr<std::array<Cell, kStripes>> cells_;
};

/// Named metrics.  The process-wide instance (global()) backs the
/// PICOLA_OBS_* macros; subsystems that need isolated counts (the
/// EncodingService, tests) own their own instance.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Find-or-create; the reference stays valid for the registry's
  /// lifetime (reset() zeroes values, it never removes metrics).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Current value of a counter / gauge, 0 if it was never created.
  uint64_t counter_value(const std::string& name) const;
  int64_t gauge_value(const std::string& name) const;

  /// Value of every counter / gauge, sorted by name (exporters).
  std::vector<std::pair<std::string, uint64_t>> counter_snapshots() const;
  std::vector<std::pair<std::string, int64_t>> gauge_snapshots() const;

  /// Snapshot of every histogram, sorted by name.
  std::vector<std::pair<std::string, Histogram::Snapshot>>
  histogram_snapshots() const;

  /// Zero every metric (objects and references survive).
  void reset();

  /// Human-readable report, one metric per line, sorted by name.
  std::string report_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum_ns,
  /// max_ns,mean_ns,p50_ns,p90_ns,p95_ns,p99_ns, and the same durations
  /// as *_ms}}} — keys sorted.  Existing keys are stable; new fields are
  /// only ever added (tests/integration/test_serve_stdin.cpp locks the
  /// set).
  std::string report_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace picola::obs
