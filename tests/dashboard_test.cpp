#include "service/dashboard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "broker/broker.h"
#include "common/time.h"

namespace loglens {
namespace {

class DashboardTest : public ::testing::Test {
 protected:
  DashboardTest() : dashboard_(anomalies_, models_, logs_) {}

  void add_anomaly(AnomalyType type, int64_t ts, const char* source,
                   const char* severity = "high") {
    Anomaly a;
    a.type = type;
    a.severity = severity;
    a.reason = "because";
    a.timestamp_ms = ts;
    a.source = source;
    a.event_id = "ev-x";
    a.logs = {"log line 1", "log line 2"};
    anomalies_.add(a);
  }

  AnomalyStore anomalies_;
  ModelStore models_;
  LogStore logs_;
  Dashboard dashboard_;
};

TEST_F(DashboardTest, RenderSummaryCounts) {
  logs_.add("D1", "raw", 0);
  logs_.add("D1", "raw2", 1);
  models_.put("default", std::make_shared<const CompositeModel>());
  models_.put("default", std::make_shared<const CompositeModel>());
  add_anomaly(AnomalyType::kMissingEndState, 100, "D1");
  add_anomaly(AnomalyType::kMissingEndState, 200, "D1");
  add_anomaly(AnomalyType::kUnparsedLog, 300, "D2", "medium");

  std::string out = dashboard_.render();
  EXPECT_NE(out.find("archived logs: 2"), std::string::npos);
  EXPECT_NE(out.find("default(v2)"), std::string::npos);
  EXPECT_NE(out.find("anomalies: 3"), std::string::npos);
  EXPECT_NE(out.find("MISSING_END_STATE: 2"), std::string::npos);
  EXPECT_NE(out.find("UNPARSED_LOG: 1"), std::string::npos);
  EXPECT_NE(out.find("D2: 1"), std::string::npos);
  EXPECT_NE(out.find("high: 2"), std::string::npos);
}

TEST_F(DashboardTest, TimelineShowsClusters) {
  // Two clusters: around t=10s and t=70s.
  for (int i = 0; i < 8; ++i) {
    add_anomaly(AnomalyType::kMissingEndState, 10'000 + i * 100, "SS7");
  }
  add_anomaly(AnomalyType::kMissingEndState, 70'000, "SS7");
  std::string out = dashboard_.render_timeline(0, 80'000, 10'000);
  EXPECT_NE(out.find(" 8"), std::string::npos);  // the dense bucket
  // More #s for the dense bucket than the sparse one.
  size_t dense_pos = out.find(" 8\n");
  ASSERT_NE(dense_pos, std::string::npos);
  EXPECT_NE(out.find("####"), std::string::npos);
}

TEST_F(DashboardTest, TimelineEdgeCases) {
  EXPECT_TRUE(dashboard_.render_timeline(0, 100, 0).empty());
  EXPECT_TRUE(dashboard_.render_timeline(100, 100, 10).empty());
  // Empty store: renders buckets with zero counts, no crash.
  std::string out = dashboard_.render_timeline(0, 30'000, 10'000);
  EXPECT_NE(out.find(" 0\n"), std::string::npos);
}

TEST_F(DashboardTest, RecentListsLatestWithDetail) {
  for (int i = 0; i < 5; ++i) {
    add_anomaly(AnomalyType::kDurationViolation, 1000 + i, "D1");
  }
  std::string out = dashboard_.render_recent(2);
  // Exactly two entries rendered.
  size_t count = 0;
  for (size_t pos = out.find("DURATION_VIOLATION"); pos != std::string::npos;
       pos = out.find("DURATION_VIOLATION", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(out.find("because"), std::string::npos);
  EXPECT_NE(out.find("> log line 1"), std::string::npos);
  EXPECT_NE(out.find("event=ev-x"), std::string::npos);
}

TEST_F(DashboardTest, SourceSpikesRanksSourcesInWindow) {
  // Three sources evicting in the hour window, one outside it, one of a
  // different type — the leaderboard counts only in-window evictions.
  for (int i = 0; i < 5; ++i) {
    add_anomaly(AnomalyType::kOpenStateEvicted, 10'000 + i, "gateway");
  }
  add_anomaly(AnomalyType::kOpenStateEvicted, 10'100, "db");
  add_anomaly(AnomalyType::kOpenStateEvicted, 10'200, "db");
  add_anomaly(AnomalyType::kOpenStateEvicted, 10'300, "auth");
  add_anomaly(AnomalyType::kOpenStateEvicted, 99'000'000, "gateway");
  add_anomaly(AnomalyType::kMissingEndState, 10'400, "gateway");

  std::string out = dashboard_.render_source_spikes(
      AnomalyType::kOpenStateEvicted, 0, 3'600'000);
  EXPECT_NE(out.find("source spikes: OPEN_STATE_EVICTED"), std::string::npos);
  EXPECT_NE(out.find("gateway"), std::string::npos);
  // Heaviest source first.
  EXPECT_LT(out.find("gateway"), out.find("db"));
  EXPECT_LT(out.find("db"), out.find("auth"));
  EXPECT_NE(out.find(" 5\n"), std::string::npos);
  EXPECT_NE(out.find(" 2\n"), std::string::npos);
  // The plan line is always present (query-stats visibility).
  EXPECT_NE(out.find("docs scanned:"), std::string::npos);
}

TEST_F(DashboardTest, SourceSpikesEmptyWindowSaysNone) {
  add_anomaly(AnomalyType::kOpenStateEvicted, 99'000'000, "gateway");
  std::string out = dashboard_.render_source_spikes(
      AnomalyType::kOpenStateEvicted, 0, 3'600'000);
  EXPECT_NE(out.find("  none"), std::string::npos);
}

TEST(DashboardRetention, ListsStoredAndFreedMessagesPerTopic) {
  MetricsRegistry registry;
  Broker broker(&registry);
  ASSERT_TRUE(broker.create_topic("logs").ok());
  ASSERT_TRUE(broker.create_topic("metrics").ok());
  Consumer reader(broker, "logs");
  const uint64_t n = Broker::kChunkMessages + 3;
  ASSERT_TRUE(broker.produce_batch("logs", std::vector<Message>(n)).ok());
  ASSERT_TRUE(broker.produce("metrics", Message{}).ok());
  ASSERT_EQ(reader.poll(n).size(), n);

  AnomalyStore anomalies;
  ModelStore models;
  LogStore logs;
  Dashboard dashboard(anomalies, models, logs, &registry);
  const std::string panel =
      dashboard.render_broker_retention({"logs", "metrics", "unknown"});
  EXPECT_NE(panel.find("broker retention"), std::string::npos);
  // logs: 3 stored, low-water at the chunk boundary, one chunk freed.
  const std::string chunk = std::to_string(Broker::kChunkMessages);
  EXPECT_NE(panel.find("logs                      3       " + chunk +
                       "       " + chunk + "              0"),
            std::string::npos)
      << panel;
  // metrics: nobody reads it, so it keeps everything.
  EXPECT_NE(panel.find("metrics                   1          0          0"),
            std::string::npos)
      << panel;
  EXPECT_EQ(panel.find("unknown"), std::string::npos);
}

// The listing as rendered from every stored anomaly, kept as the
// reference for render_recent, which reads only the last `limit`.
std::string recent_from_all(const AnomalyStore& store, size_t limit) {
  std::ostringstream out;
  auto all = store.all();
  size_t start = all.size() > limit ? all.size() - limit : 0;
  for (size_t i = start; i < all.size(); ++i) {
    const Anomaly& a = all[i];
    out << "[" << a.severity << "] " << anomaly_type_name(a.type);
    if (a.timestamp_ms >= 0) out << " @ " << format_canonical(a.timestamp_ms);
    if (!a.event_id.empty()) out << " event=" << a.event_id;
    if (!a.source.empty()) out << " source=" << a.source;
    out << "\n    " << a.reason << "\n";
    for (const auto& l : a.logs) {
      out << "      > " << l << "\n";
      if (&l - a.logs.data() >= 2) {
        out << "      ...\n";
        break;
      }
    }
  }
  return out.str();
}

TEST(DashboardRecent, LastAnomaliesAcrossSealedSegmentsAndHotRows) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "loglens_dashboard_recent";
  std::filesystem::remove_all(dir);
  DocumentStoreOptions options;
  options.dir = dir.string();
  options.hot_max_docs = 4;
  AnomalyStore anomalies(options);
  ModelStore models;
  LogStore logs;
  Dashboard dashboard(anomalies, models, logs);
  for (int i = 0; i < 10; ++i) {
    Anomaly a;
    a.type = i % 2 == 0 ? AnomalyType::kDurationViolation
                        : AnomalyType::kUnparsedLog;
    a.severity = i % 3 == 0 ? "high" : "medium";
    a.reason = "reason " + std::to_string(i);
    a.timestamp_ms = i % 4 == 0 ? -1 : 1'456'218'031'000 + i;
    a.source = i % 5 == 0 ? "" : "D" + std::to_string(i);
    a.event_id = i % 2 == 0 ? "ev-" + std::to_string(i) : "";
    for (int k = 0; k <= i % 5; ++k) {
      a.logs.push_back("line " + std::to_string(i) + "." + std::to_string(k));
    }
    anomalies.add(a);
  }
  // Rows 0-7 sit in two sealed segments, rows 8-9 in the hot tier, so the
  // last three span both.
  ASSERT_EQ(anomalies.segment_count(), 2u);
  ASSERT_EQ(anomalies.hot_count(), 2u);
  for (size_t limit : {0, 1, 2, 3, 5, 10, 25}) {
    EXPECT_EQ(dashboard.render_recent(limit), recent_from_all(anomalies, limit))
        << "limit " << limit;
  }
  EXPECT_NE(dashboard.render_recent(3).find("reason 7"), std::string::npos);
  EXPECT_EQ(dashboard.render_recent(3).find("reason 6"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(DashboardTest, EmptyStoresRenderCleanly) {
  std::string out = dashboard_.render();
  EXPECT_NE(out.find("anomalies: 0"), std::string::npos);
  EXPECT_TRUE(dashboard_.render_recent(5).empty());
}

}  // namespace
}  // namespace loglens
