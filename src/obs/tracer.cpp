#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "base/hex.h"

namespace picola::obs {

namespace {

/// Per-thread span state: nesting depth and the sampling decision taken
/// at the current top-level span.
struct SpanTls {
  int depth = 0;
  bool sampled = true;
  uint32_t top_level_count = 0;
};

SpanTls& span_tls() {
  thread_local SpanTls tls;
  return tls;
}

thread_local uint64_t t_trace_id = 0;

std::string fmt_us(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

uint64_t current_trace_id() { return t_trace_id; }

void set_current_trace_id(uint64_t id) { t_trace_id = id; }

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();  // leaked: thread buffers must outlive
                                    // any thread's cached pointer
  return *t;
}

Tracer::ThreadBuf& Tracer::buf_for_this_thread() {
  thread_local ThreadBuf* cached = nullptr;
  if (cached) return *cached;
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  cached = buf.get();
  std::lock_guard<std::mutex> lock(mu_);
  bufs_.push_back(std::move(buf));
  return *cached;
}

void Tracer::record(const char* name, uint64_t start_ns, uint64_t dur_ns,
                    int depth) {
  ThreadBuf& b = buf_for_this_thread();
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.push_back(TraceEvent{name, start_ns, dur_ns, t_trace_id, b.tid,
                                static_cast<uint16_t>(depth)});
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : bufs_) {
    std::lock_guard<std::mutex> bl(b->mu);
    b->events.clear();
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : bufs_) {
      std::lock_guard<std::mutex> bl(b->mu);
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.depth < b.depth;
            });
  return all;
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) os << ",";
    first = false;
    // Category = the name's prefix up to '/', so Perfetto can group the
    // core / guide / espresso / service / cache layers.
    std::string name(e.name);
    std::string cat = name.substr(0, name.find('/'));
    os << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"ts\":" << fmt_us(e.start_ns) << ",\"dur\":"
       << fmt_us(e.dur_ns) << ",\"pid\":1,\"tid\":" << e.tid;
    if (e.trace_id != 0)
      os << ",\"args\":{\"trace_id\":\"" << hex64(e.trace_id) << "\"}";
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

namespace {

struct Agg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = UINT64_MAX;
  uint64_t max_ns = 0;
};

std::map<std::string, Agg> aggregate(const std::vector<TraceEvent>& evs) {
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : evs) {
    Agg& a = by_name[e.name];
    ++a.count;
    a.total_ns += e.dur_ns;
    a.min_ns = std::min(a.min_ns, e.dur_ns);
    a.max_ns = std::max(a.max_ns, e.dur_ns);
  }
  return by_name;
}

}  // namespace

std::string Tracer::summary_text() const {
  std::ostringstream os;
  for (const auto& [name, a] : aggregate(events())) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  " count=%llu total_ms=%.3f min_ms=%.3f max_ms=%.3f",
                  static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.total_ns) / 1e6,
                  static_cast<double>(a.min_ns) / 1e6,
                  static_cast<double>(a.max_ns) / 1e6);
    os << name << buf << "\n";
  }
  return os.str();
}

std::string Tracer::summary_json() const {
  std::ostringstream os;
  os << "{\"spans\":{";
  bool first = true;
  for (const auto& [name, a] : aggregate(events())) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << a.count << ",\"total_ns\":"
       << a.total_ns << ",\"min_ns\":" << a.min_ns << ",\"max_ns\":"
       << a.max_ns << "}";
  }
  os << "}}";
  return os.str();
}

void ScopedSpan::enter() {
  entered_ = true;
  SpanTls& tls = span_tls();
  if (tls.depth == 0) {
    uint32_t every = Tracer::global().sample_every();
    tls.sampled = every <= 1 || (tls.top_level_count++ % every) == 0;
  }
  active_ = tls.sampled;
  depth_ = static_cast<uint16_t>(tls.depth);
  ++tls.depth;
  if (active_) start_ = now_ns();
}

void ScopedSpan::finish() {
  SpanTls& tls = span_tls();
  --tls.depth;
  if (!active_) return;
  uint64_t dur = now_ns() - start_;
  MetricsRegistry::global().histogram(name_).record(dur);
  Tracer& t = Tracer::global();
  if (t.tracing()) t.record(name_, start_, dur, depth_);
}

uint64_t ScopedSpan::elapsed_ns() const {
  return active_ ? now_ns() - start_ : 0;
}

void record_span(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  if (!enabled()) return;
  MetricsRegistry::global().histogram(name).record(dur_ns);
  Tracer& t = Tracer::global();
  if (t.tracing()) t.record(name, start_ns, dur_ns, 0);
}

}  // namespace picola::obs
