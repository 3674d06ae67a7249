#pragma once
// picola::obs — scoped-span phase tracer.
//
// A ScopedSpan times a named phase (e.g. "picola/classify") on the
// current thread.  When the master switch (obs::enabled()) is off the
// constructor is a single relaxed load; when on, the span duration is
// recorded into the global MetricsRegistry histogram of the same name,
// and — if tracing is additionally on — a TraceEvent is appended to a
// per-thread buffer of the process-wide Tracer.
//
// Export: chrome_trace_json() renders the buffers as Chrome trace-event
// JSON ("ph":"X" complete events, microsecond timestamps) loadable in
// chrome://tracing or https://ui.perfetto.dev; summary_text()/
// summary_json() aggregate per span name.
//
// Sampling: set_sample_every(N) records only every Nth *top-level* span
// per thread; nested spans inherit the decision, so a sampled trace
// always contains complete call trees.
//
// Determinism for tests: timestamps come from obs::now_ns() (fakeable via
// set_clock_for_testing); thread ids are small integers assigned on a
// thread's first recorded span.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace picola::obs {

struct TraceEvent {
  const char* name = nullptr;  ///< static string (span site literal)
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;  ///< request correlation id, 0 = none
  uint32_t tid = 0;
  uint16_t depth = 0;  ///< nesting depth on the recording thread
};

/// The trace id stamped onto spans recorded by the current thread
/// (request correlation across client -> server -> service -> restart
/// task; see docs/SERVICE.md).  0 means "no request context".
uint64_t current_trace_id();
void set_current_trace_id(uint64_t id);

/// Sets the thread's trace id for a scope, restoring the previous one on
/// exit (worker threads interleave slots of different requests).
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t id) : prev_(current_trace_id()) {
    set_current_trace_id(id);
  }
  ~ScopedTraceId() { set_current_trace_id(prev_); }
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t prev_;
};

class Tracer {
 public:
  static Tracer& global();

  /// Turn trace-event collection on/off (histograms are fed regardless,
  /// as long as obs::enabled()).
  void set_tracing(bool on) {
    tracing_.store(on, std::memory_order_relaxed);
  }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Record only every Nth top-level span per thread (1 = all, default).
  void set_sample_every(uint32_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Drop all buffered events (buffers and thread ids survive).
  void clear();

  /// Merged events, sorted by (start_ns, tid, depth).
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON (the "JSON object format" with a
  /// traceEvents array), deterministic given the events.
  std::string chrome_trace_json() const;

  /// Aggregated per-name summary, one line per span name, sorted.
  std::string summary_text() const;
  /// {"spans":{name:{"count":..,"total_ns":..,"min_ns":..,"max_ns":..}}}
  std::string summary_json() const;

  /// Append one event for the current thread (used by ScopedSpan and by
  /// cross-thread phases like service/job that time themselves).
  void record(const char* name, uint64_t start_ns, uint64_t dur_ns,
              int depth);

 private:
  Tracer() = default;

  struct ThreadBuf {
    std::mutex mu;
    std::vector<TraceEvent> events;
    uint32_t tid = 0;
  };
  ThreadBuf& buf_for_this_thread();

  std::atomic<bool> tracing_{false};
  std::atomic<uint32_t> sample_every_{1};
  std::atomic<uint32_t> next_tid_{1};
  mutable std::mutex mu_;  ///< guards bufs_ (registration and export)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span.  Construct with a *static* name literal.  The switched-off
/// path is fully inline — one relaxed load in the constructor, one
/// register test in the destructor — so spans can sit inside the PICOLA
/// column loop without showing up in profiles.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (enabled()) enter();
  }
  ~ScopedSpan() {
    if (entered_) finish();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Time since construction; 0 when the span is inactive (obs off or
  /// sampled out).
  uint64_t elapsed_ns() const;

 private:
  void enter();   ///< slow path: sampling decision, depth, start stamp
  void finish();  ///< slow path: histogram record + trace event

  const char* name_;
  uint64_t start_ = 0;
  uint16_t depth_ = 0;
  bool entered_ = false;  ///< obs was enabled at construction
  bool active_ = false;   ///< this span is being measured
};

/// No-op stand-in used by the PICOLA_OBS_DISABLED macro expansion.
struct NullSpan {
  uint64_t elapsed_ns() const { return 0; }
};

/// Record an externally timed span (histogram + trace event), subject to
/// the same master switch as ScopedSpan but not to sampling.
void record_span(const char* name, uint64_t start_ns, uint64_t dur_ns);

}  // namespace picola::obs
