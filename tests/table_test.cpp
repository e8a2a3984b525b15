// The storage table's API, through both of its uses: the log archive
// (LogStore) and Anomaly Storage (AnomalyStore). Get by id, fetch by key,
// time windows, limits, counts, flush and reopen, the seal retry under a
// failing disk, and the hot-bytes gauge.
#include "storage/table.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "storage/stores.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("loglens_table_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

Anomaly anomaly(AnomalyType type, int64_t ts, const std::string& source) {
  Anomaly a;
  a.type = type;
  a.timestamp_ms = ts;
  a.source = source;
  a.reason = "r" + std::to_string(ts);
  a.logs = {"line " + std::to_string(ts)};
  return a;
}

TEST(Table, AddAndGet) {
  Table table;
  EXPECT_EQ(table.add("a", "hello", 1), 0u);
  EXPECT_EQ(table.add("b", "world", 2), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.get(0), "hello");
  EXPECT_EQ(table.get(1), "world");
  EXPECT_FALSE(table.get(2).has_value());
  EXPECT_FALSE(table.get(999).has_value());
}

TEST(Table, FetchAndCountByKey) {
  Table table;
  for (int i = 0; i < 100; ++i) {
    table.add(i % 2 == 0 ? "even" : "odd", std::to_string(i), i);
  }
  EXPECT_EQ(table.fetch("even").size(), 50u);
  EXPECT_EQ(table.count("even"), 50u);
  EXPECT_EQ(table.fetch("odd").front(), "1");
  EXPECT_TRUE(table.fetch("missing").empty());
  EXPECT_EQ(table.count("missing"), 0u);
  EXPECT_EQ(table.keys(), (std::set<std::string>{"even", "odd"}));
  EXPECT_EQ(table.fetch_all().size(), 100u);
}

TEST(Table, TimeWindowIsInclusive) {
  Table table;
  for (int i = 0; i < 20; ++i) table.add("s", std::to_string(i * 10), i * 10);
  const auto hits = table.fetch("s", 50, 100);
  ASSERT_EQ(hits.size(), 6u);  // 50,60,...,100 inclusive
  EXPECT_EQ(hits.front(), "50");
  EXPECT_EQ(hits.back(), "100");
  EXPECT_EQ(table.count("s", 50, 100), 6u);
  EXPECT_TRUE(table.fetch("s", 101, 109).empty());
}

TEST(Table, LimitRespected) {
  Table table;
  for (int i = 0; i < 10; ++i) table.add("s", std::to_string(i), i);
  const auto hits = table.fetch("s", INT64_MIN, INT64_MAX, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits.back(), "2");
  EXPECT_TRUE(table.fetch("s", INT64_MIN, INT64_MAX, 0).empty());
}

// A sealed segment is read through the key's postings alone; the hot rows
// are a plain scan. QueryStats makes the difference visible.
TEST(Table, SealedFetchScansOnlyTheKeysPostings) {
  const std::string dir = test_dir("postings");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;  // manual flush: one sealed segment
  Table sealed(opts);
  Table hot;
  for (int i = 0; i < 900; ++i) {
    const char* key = i < 4 ? "rare" : "common";
    sealed.add(key, "x", i);
    hot.add(key, "x", i);
  }
  ASSERT_TRUE(sealed.flush().ok());
  ASSERT_EQ(sealed.segment_count(), 1u);

  QueryStats stats;
  EXPECT_EQ(sealed.count("rare", INT64_MIN, INT64_MAX, &stats), 4u);
  EXPECT_EQ(stats.segments_considered, 1u);
  EXPECT_EQ(stats.docs_scanned, 4u);

  stats = QueryStats{};
  EXPECT_EQ(hot.count("rare", INT64_MIN, INT64_MAX, &stats), 4u);
  EXPECT_EQ(stats.segments_considered, 0u);
  EXPECT_EQ(stats.docs_scanned, 900u);
  fs::remove_all(dir);
}

// Rows spill to sealed segments at the hot threshold, every id survives
// flush and reopen, and fetches span both tiers.
TEST(Table, TieredFlushAndReopen) {
  const std::string dir = test_dir("tiered");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  {
    Table table(opts);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(table.add(i % 2 == 0 ? "a" : "b", std::to_string(i), i),
                static_cast<uint64_t>(i));
    }
    EXPECT_EQ(table.segment_count(), 2u);  // 8 sealed, 2 hot
    EXPECT_EQ(table.hot_count(), 2u);
    EXPECT_EQ(table.count("a"), 5u);  // spans sealed + hot
    ASSERT_TRUE(table.flush().ok());
    EXPECT_EQ(table.hot_count(), 0u);
  }
  Table reopened(opts);
  EXPECT_EQ(reopened.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reopened.get(static_cast<uint64_t>(i)), std::to_string(i));
  }
  EXPECT_EQ(reopened.keys(), (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(reopened.add("c", "10", 10), 10u);  // ids continue
  fs::remove_all(dir);
}

TEST(LogStore, FetchBySourceAndTime) {
  LogStore store;
  store.add("web", "line1", 100);
  store.add("web", "line2", 200);
  store.add("db", "line3", 150);
  EXPECT_EQ(store.size(), 3u);
  auto web = store.fetch("web");
  ASSERT_EQ(web.size(), 2u);
  EXPECT_EQ(web[0], "line1");
  auto ranged = store.fetch("web", 150, 300);
  ASSERT_EQ(ranged.size(), 1u);
  EXPECT_EQ(ranged[0], "line2");
  EXPECT_TRUE(store.fetch("missing").empty());
  EXPECT_EQ(store.fetch("web", INT64_MIN, INT64_MAX, 1).size(), 1u);
}

TEST(AnomalyStore, TypedQueriesAndGet) {
  AnomalyStore store;
  store.add(anomaly(AnomalyType::kUnparsedLog, 100, "web"));
  store.add(anomaly(AnomalyType::kDurationViolation, 200, "db"));
  store.add(anomaly(AnomalyType::kDurationViolation, 300, "web"));
  EXPECT_EQ(store.count(), 3u);
  EXPECT_EQ(store.count_by_type(AnomalyType::kDurationViolation), 2u);
  EXPECT_EQ(store.count_by_type(AnomalyType::kKeywordAlert), 0u);
  ASSERT_EQ(store.all().size(), 3u);
  EXPECT_EQ(store.all()[1], anomaly(AnomalyType::kDurationViolation, 200, "db"));

  const auto window =
      store.window(AnomalyType::kDurationViolation, 250, 400);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].source, "web");

  // get() is the stored JSON, byte for byte what to_json() dumps.
  auto doc = store.get(0);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(),
            anomaly(AnomalyType::kUnparsedLog, 100, "web").to_json().dump());
  EXPECT_FALSE(store.get(3).has_value());
  EXPECT_EQ(store.docs().get(2)->get_int("timestamp_ms"), 300);
}

// A seal that keeps failing is retried once per `hot_max_docs` adds, not on
// every add, and nothing is lost meanwhile.
TEST(AnomalyStore, FailedSealRetriesOncePerThreshold) {
  const std::string dir = test_dir("seal_retry");
  FaultInjector faults(3);
  FaultSpec die;
  die.action = FaultAction::kThrow;
  faults.arm(kFaultSiteSegmentFlush, die);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 8;
  opts.faults = &faults;
  AnomalyStore store(opts);
  std::vector<Anomaly> added;
  for (int i = 0; i < 100; ++i) {
    added.push_back(anomaly(AnomalyType::kKeywordAlert, i, "web"));
    store.add(added.back());
  }
  EXPECT_LE(faults.triggered(kFaultSiteSegmentFlush), (100u + 7) / 8);
  EXPECT_GT(faults.triggered(kFaultSiteSegmentFlush), 0u);
  EXPECT_EQ(store.segment_count(), 0u);
  EXPECT_EQ(store.all(), added);

  faults.disarm(kFaultSiteSegmentFlush);
  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(store.hot_count(), 0u);
  EXPECT_EQ(store.all(), added);
  fs::remove_all(dir);
}

// loglens_storage_hot_bytes{store="anomalies"} counts the hot blocks: more
// than 0 once an anomaly is held, 0 once the seal frees them.
TEST(AnomalyStore, HotBytesGaugeTracksTheHotRows) {
  const std::string dir = test_dir("hot_bytes");
  MetricsRegistry metrics;
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;
  opts.name = "anomalies";
  opts.metrics = &metrics;
  AnomalyStore store(opts);
  const Gauge& hot_bytes =
      metrics.gauge("loglens_storage_hot_bytes", {{"store", "anomalies"}});
  EXPECT_EQ(hot_bytes.value(), 0);
  store.add(anomaly(AnomalyType::kUnparsedLog, 1, "web"));
  EXPECT_GT(hot_bytes.value(), 0);
  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(hot_bytes.value(), 0);
  EXPECT_EQ(store.count(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace loglens
