// Unit tests for the metrics subsystem: concurrent counters, histogram
// percentile accuracy against known distributions, registry handle
// stability, exposition formats, and the span ring buffer.
#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics/timer.h"
#include "streaming/thread_pool.h"

namespace loglens {
namespace {

TEST(CounterTest, ConcurrentIncrementsFromThreadPool) {
  Counter counter;
  constexpr int kHelpers = 7;
  constexpr int kTasks = 64;
  constexpr uint64_t kPerTask = 10'000;
  ThreadPool pool(kHelpers);
  pool.run(kTasks, [&counter](size_t, ThreadPool::Runner) {
    for (uint64_t i = 0; i < kPerTask; ++i) counter.inc();
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
}

TEST(CounterTest, IncrementByAndReset) {
  Counter counter;
  counter.inc(5);
  counter.inc(7);
  EXPECT_EQ(counter.value(), 12u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.add(-50);
  EXPECT_EQ(gauge.value(), -8);
}

TEST(HistogramTest, BucketBoundsContainValues) {
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{4}, uint64_t{7},
        uint64_t{100}, uint64_t{1023}, uint64_t{1024}, uint64_t{999'999},
        uint64_t{1} << 40}) {
    size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lo(b), v) << v;
    EXPECT_LT(v, Histogram::bucket_lo(b) + Histogram::bucket_width(b)) << v;
  }
}

TEST(HistogramTest, UniformDistributionPercentiles) {
  Histogram hist;
  for (uint64_t v = 1; v <= 1000; ++v) hist.record(v);
  Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500'500u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  // Log-scale buckets are 12.5% wide; allow 15% relative error.
  EXPECT_NEAR(snap.p50, 500.0, 75.0);
  EXPECT_NEAR(snap.p90, 900.0, 135.0);
  EXPECT_NEAR(snap.p95, 950.0, 143.0);
  EXPECT_NEAR(snap.p99, 990.0, 149.0);
}

TEST(HistogramTest, SkewedDistribution) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.record(10);
  hist.record(10'000);
  Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 101u);
  // The p50/p99 ranks both land in the value-10 bucket (width 2).
  EXPECT_GE(snap.p50, 10.0);
  EXPECT_LE(snap.p50, 12.0);
  EXPECT_LE(snap.p99, 12.0);
  EXPECT_EQ(snap.max, 10'000u);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram hist;
  hist.record(0);
  hist.record(1);
  hist.record(2);
  hist.record(3);
  Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 3u);
}

TEST(HistogramTest, ConcurrentRecordsStayConsistent) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.record((t + 1) * 100 + i % 50);
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.min, 100u);
  EXPECT_EQ(snap.max, 849u);
}

TEST(RegistryTest, HandlesAreStableAndSharedByNameAndLabels) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", {{"p", "0"}});
  Counter& b = registry.counter("x_total", {{"p", "0"}});
  Counter& c = registry.counter("x_total", {{"p", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Label order must not matter.
  Counter& d = registry.counter("y_total", {{"a", "1"}, {"b", "2"}});
  Counter& e = registry.counter("y_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&d, &e);
}

TEST(RegistryTest, PrometheusRendering) {
  MetricsRegistry registry;
  registry.counter("loglens_test_total", {{"stage", "parser"}}, "test counter")
      .inc(3);
  registry.gauge("loglens_test_depth", {}).set(-2);
  Histogram& hist = registry.histogram("loglens_test_us", {{"q", "a\"b"}});
  hist.record(10);
  std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# TYPE loglens_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP loglens_test_total test counter"),
            std::string::npos);
  EXPECT_NE(text.find("loglens_test_total{stage=\"parser\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("loglens_test_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE loglens_test_us summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("loglens_test_us_count{q=\"a\\\"b\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, JsonSnapshotConsistency) {
  MetricsRegistry registry;
  registry.counter("c_total").inc(7);
  registry.gauge("g").set(9);
  registry.histogram("h_us").record(100);
  registry.record_span("stage.batch", 1, 2);
  Json snap = registry.snapshot_json();
  ASSERT_TRUE(snap.is_object());
  const Json* counters = snap.find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_array());
  ASSERT_EQ(counters->as_array().size(), 1u);
  EXPECT_EQ(counters->as_array()[0].get_string("name"), "c_total");
  const Json* hists = snap.find("histograms");
  ASSERT_TRUE(hists != nullptr && hists->is_array());
  ASSERT_EQ(hists->as_array().size(), 1u);
  const Json* count = hists->as_array()[0].find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->as_int(), 1);
  const Json* spans = snap.find("spans");
  ASSERT_TRUE(spans != nullptr && spans->is_array());
  EXPECT_EQ(spans->as_array().size(), 1u);
  // Round-trips through the JSON parser.
  auto parsed = Json::parse(snap.dump());
  EXPECT_TRUE(parsed.ok());
}

TEST(RegistryTest, ResetZeroesInPlace) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c_total");
  c.inc(5);
  Histogram& h = registry.histogram("h_us");
  h.record(123);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(registry.take_trace_spans().empty());
}

TEST(RegistryTest, SpanRingKeepsNewest) {
  MetricsRegistry registry;
  for (int i = 0; i < 300; ++i) {
    registry.record_span("s" + std::to_string(i), i, 1);
  }
  Json snapshot = registry.snapshot_json();
  const JsonArray& spans = snapshot.find("spans")->as_array();
  ASSERT_EQ(spans.size(), 256u);
  EXPECT_EQ(spans.front().get_string("name"), "s44");  // oldest surviving
  EXPECT_EQ(spans.back().get_string("name"), "s299");  // newest
}

TEST(TimerTest, ScopedTimerRecords) {
  Histogram hist;
  { ScopedTimer timer(&hist); }
  EXPECT_EQ(hist.snapshot().count, 1u);
}

TEST(TimerTest, ScopedSpanFilesRecordAndSample) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("span_us");
  { ScopedSpan span(&registry, "unit.test", &hist); }
  EXPECT_EQ(hist.snapshot().count, 1u);
  auto spans = registry.take_trace_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit.test");
}

}  // namespace
}  // namespace loglens
