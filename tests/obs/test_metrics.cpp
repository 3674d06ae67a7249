// MetricsRegistry: exact totals under concurrency, histogram bucketing,
// registration stability, reports.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace picola::obs {
namespace {

TEST(CounterTest, SingleThreadExact) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.max_of(5);
  EXPECT_EQ(g.value(), 7);  // not lowered
  g.max_of(20);
  EXPECT_EQ(g.value(), 20);
}

TEST(HistogramTest, Log2Bucketing) {
  Histogram h;
  h.record(0);   // bucket 0
  h.record(1);   // bit_width 1 -> bucket 1
  h.record(2);   // bucket 2
  h.record(3);   // bucket 2
  h.record(4);   // bucket 3
  h.record(1023);  // bucket 10
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 1023);
  EXPECT_EQ(s.max, 1023u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
}

TEST(HistogramTest, PercentileIsBucketUpperBoundCappedByMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(10);  // bucket 4, upper bound 15
  h.record(1000);                             // bucket 10
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.percentile(0.5), 15u);
  EXPECT_EQ(s.percentile(1.0), 1000u);  // capped by the observed max
  EXPECT_DOUBLE_EQ(s.mean(), (99.0 * 10 + 1000) / 100.0);
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h]() {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<uint64_t>(i % 7));
    });
  for (auto& t : threads) t.join();
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  for (int i = 0; i < kPerThread; ++i) expected_sum += static_cast<uint64_t>(i % 7);
  EXPECT_EQ(s.sum, expected_sum * kThreads);
  EXPECT_EQ(s.max, 6u);
}

TEST(MetricsRegistryTest, SameNameSameMetric) {
  MetricsRegistry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(r.counter_value("x"), 3u);
  EXPECT_EQ(r.counter_value("missing"), 0u);
  r.gauge("g").set(-4);
  EXPECT_EQ(r.gauge_value("g"), -4);
  EXPECT_EQ(r.gauge_value("missing"), 0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry r;
  Counter& c = r.counter("c");
  Histogram& h = r.histogram("h");
  c.add(5);
  h.record(100);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);  // the old reference still feeds the registry
  EXPECT_EQ(r.counter_value("c"), 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&r]() {
      for (int i = 0; i < 1000; ++i) {
        r.counter("shared").add(1);
        r.histogram("lat").record(static_cast<uint64_t>(i));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.counter_value("shared"), 8000u);
  EXPECT_EQ(r.histogram("lat").snapshot().count, 8000u);
}

TEST(MetricsRegistryTest, ReportsContainEveryMetricSorted) {
  MetricsRegistry r;
  r.counter("b/count").add(2);
  r.counter("a/count").add(1);
  r.gauge("depth").set(7);
  r.histogram("z/lat").record(1500000);  // 1.5 ms

  std::string text = r.report_text();
  EXPECT_NE(text.find("a/count count=1"), std::string::npos) << text;
  EXPECT_NE(text.find("b/count count=2"), std::string::npos);
  EXPECT_NE(text.find("depth gauge=7"), std::string::npos);
  EXPECT_NE(text.find("z/lat count=1 total_ms=1.500"), std::string::npos);
  EXPECT_LT(text.find("a/count"), text.find("b/count"));

  std::string json = r.report_json();
  EXPECT_NE(json.find("\"a/count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":7"), std::string::npos);
  EXPECT_NE(json.find("\"z/lat\":{\"count\":1,\"sum_ns\":1500000"),
            std::string::npos);
}

TEST(MetricsRegistryTest, HistogramJsonCarriesNsAndMsDualsWithP95) {
  MetricsRegistry r;
  r.histogram("lat").record(2'000'000);  // 2 ms
  std::string json = r.report_json();
  // Every duration appears twice — raw nanoseconds and the millisecond
  // dual — and p95 sits alongside the existing percentiles.
  for (const char* key :
       {"\"count\":", "\"sum_ns\":", "\"max_ns\":", "\"mean_ns\":",
        "\"p50_ns\":", "\"p90_ns\":", "\"p95_ns\":", "\"p99_ns\":",
        "\"sum_ms\":", "\"max_ms\":", "\"mean_ms\":", "\"p50_ms\":",
        "\"p90_ms\":", "\"p95_ms\":", "\"p99_ms\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // The text report shows p95 too.
  std::string text = r.report_text();
  EXPECT_NE(text.find("p95_ms="), std::string::npos) << text;
}

TEST(MetricsRegistryTest, CounterAndGaugeSnapshotsAreSortedViews) {
  MetricsRegistry r;
  r.counter("b").add(2);
  r.counter("a").add(1);
  r.gauge("g2").set(-5);
  r.gauge("g1").set(7);
  auto counters = r.counter_snapshots();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "b");
  EXPECT_EQ(counters[1].second, 2u);
  auto gauges = r.gauge_snapshots();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].first, "g1");
  EXPECT_EQ(gauges[0].second, 7);
  EXPECT_EQ(gauges[1].first, "g2");
  EXPECT_EQ(gauges[1].second, -5);
}

TEST(ObsSwitchTest, EnabledDefaultsOffAndToggles) {
  // Other tests must leave the switch off; this test restores it too.
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST(ClockTest, FakeClockOverridesAndRestores) {
  static uint64_t fake_now = 0;
  fake_now = 12345;
  set_clock_for_testing(+[]() { return fake_now; });
  EXPECT_EQ(now_ns(), 12345u);
  fake_now = 99999;
  EXPECT_EQ(now_ns(), 99999u);
  set_clock_for_testing(nullptr);
  uint64_t a = now_ns();
  uint64_t b = now_ns();
  EXPECT_LE(a, b);  // monotonic real clock again
}

}  // namespace
}  // namespace picola::obs
