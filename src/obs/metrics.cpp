#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace picola::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

std::atomic<uint64_t (*)()> g_clock{nullptr};

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int bucket_of(uint64_t v) {
  return v == 0 ? 0
               : std::min(static_cast<int>(std::bit_width(v)),
                          kHistogramBuckets - 1);
}

}  // namespace

uint64_t now_ns() {
  uint64_t (*fn)() = g_clock.load(std::memory_order_relaxed);
  return fn ? fn() : steady_now_ns();
}

void set_clock_for_testing(uint64_t (*fn)()) {
  g_clock.store(fn, std::memory_order_relaxed);
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

size_t stripe_index() {
  static std::atomic<size_t> next{0};
  thread_local size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

void Gauge::max_of(int64_t v) {
  int64_t cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram() : cells_(std::make_unique<std::array<Cell, kStripes>>()) {
  reset();
}

void Histogram::record(uint64_t v) {
  Cell& c = (*cells_)[stripe_index()];
  c.buckets[static_cast<size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
  c.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = c.max.load(std::memory_order_relaxed);
  while (cur < v &&
         !c.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  for (const Cell& c : *cells_) {
    s.count += c.count.load(std::memory_order_relaxed);
    s.sum += c.sum.load(std::memory_order_relaxed);
    s.max = std::max(s.max, c.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kHistogramBuckets; ++b)
      s.buckets[static_cast<size_t>(b)] +=
          c.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  for (Cell& c : *cells_) {
    for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
    c.count.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
    c.max.store(0, std::memory_order_relaxed);
  }
}

uint64_t Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0;
  double target = p * static_cast<double>(count);
  uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[static_cast<size_t>(b)];
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bucket b, capped by the observed max.
      uint64_t hi = b == 0 ? 0 : (1ULL << b) - 1;
      return std::min(hi, max);
    }
  }
  return max;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked: process-wide
  return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counter_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, int64_t>>
MetricsRegistry::gauge_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
MetricsRegistry::histogram_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h->snapshot());
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

namespace {

double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::report_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_)
    os << name << " count=" << c->value() << "\n";
  for (const auto& [name, g] : gauges_)
    os << name << " gauge=" << g->value() << "\n";
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->snapshot();
    os << name << " count=" << s.count << " total_ms=" << fmt(ms(s.sum))
       << " mean_ms=" << fmt(s.mean() / 1e6)
       << " p50_ms=" << fmt(ms(s.percentile(0.5)))
       << " p95_ms=" << fmt(ms(s.percentile(0.95)))
       << " p99_ms=" << fmt(ms(s.percentile(0.99)))
       << " max_ms=" << fmt(ms(s.max)) << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::report_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    Histogram::Snapshot s = h->snapshot();
    uint64_t p50 = s.percentile(0.5), p90 = s.percentile(0.9);
    uint64_t p95 = s.percentile(0.95), p99 = s.percentile(0.99);
    // Nanosecond keys predate the ms duals; both units are emitted so
    // humans and dashboards read the same report (ISSUE 7 satellite).
    os << "\"" << name << "\":{\"count\":" << s.count << ",\"sum_ns\":"
       << s.sum << ",\"max_ns\":" << s.max << ",\"mean_ns\":" << fmt(s.mean())
       << ",\"p50_ns\":" << p50 << ",\"p90_ns\":" << p90 << ",\"p95_ns\":"
       << p95 << ",\"p99_ns\":" << p99 << ",\"sum_ms\":" << fmt(ms(s.sum))
       << ",\"max_ms\":" << fmt(ms(s.max)) << ",\"mean_ms\":"
       << fmt(s.mean() / 1e6) << ",\"p50_ms\":" << fmt(ms(p50))
       << ",\"p90_ms\":" << fmt(ms(p90)) << ",\"p95_ms\":" << fmt(ms(p95))
       << ",\"p99_ms\":" << fmt(ms(p99)) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace picola::obs
