// Checkpoint/restore of stateful detection (extension; see detector.h).
//
// The paper's Section V-A warns that restarting a stateful streaming
// service loses all keyed state. LogLens avoids restarts for model updates;
// this extension covers the remaining case — crashes and planned migrations
// — by persisting every partition's open events and re-sharding them into a
// new service instance, even one with a different partition count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "automata/detector.h"
#include "common/hash.h"
#include "datagen/datasets.h"
#include "service/service.h"

namespace loglens {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- SequenceDetector-level round trip -----------------------------------

ParsedLog elog(int pattern, const std::string& id, int64_t ts) {
  ParsedLog log;
  log.pattern_id = pattern;
  log.timestamp_ms = ts;
  log.fields.emplace_back("P" + std::to_string(pattern) + "F1", Json(id));
  log.raw = "p" + std::to_string(pattern) + " " + id;
  return log;
}

SequenceModel tiny_model() {
  SequenceModel m;
  m.id_fields = {{1, "P1F1"}, {2, "P2F1"}, {3, "P3F1"}};
  Automaton a;
  a.id = 1;
  a.begin_patterns = {1};
  a.end_patterns = {3};
  a.states[1] = {1, 1, 1};
  a.states[2] = {2, 1, 2};
  a.states[3] = {3, 1, 1};
  a.min_duration_ms = 0;
  a.max_duration_ms = 1000;
  m.automata.push_back(a);
  return m;
}

TEST(DetectorSnapshot, RoundTripPreservesOpenEvents) {
  SequenceDetector original(tiny_model());
  original.on_log(elog(1, "e1", 1000), "src");
  original.on_log(elog(2, "e1", 1100), "src");
  original.on_log(elog(1, "e2", 2000), "src");
  ASSERT_EQ(original.open_events(), 2u);

  Json snap = original.snapshot_state();
  // Survives a text round trip (as the file-based checkpoint does).
  auto reparsed = Json::parse(snap.dump());
  ASSERT_TRUE(reparsed.ok());

  SequenceDetector restored(tiny_model());
  ASSERT_TRUE(restored.restore_state(reparsed.value()).ok());
  EXPECT_EQ(restored.open_events(), 2u);

  // The restored detector closes e1 normally — no spurious anomalies.
  auto anomalies = restored.on_log(elog(3, "e1", 1300), "src");
  EXPECT_TRUE(anomalies.empty());
  // And expiry still works for e2 (missing end, plus the middle state that
  // never occurred).
  auto expired = restored.on_heartbeat(10'000);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].type, AnomalyType::kMissingEndState);
  EXPECT_EQ(expired[1].type, AnomalyType::kMissingIntermediateState);
  EXPECT_EQ(expired[0].event_id, "e2");
  EXPECT_EQ(expired[0].source, "src");
  ASSERT_FALSE(expired[0].logs.empty());
}

TEST(DetectorSnapshot, RejectsMalformedSnapshots) {
  SequenceDetector d(tiny_model());
  EXPECT_FALSE(d.restore_state(Json("garbage")).ok());
  EXPECT_FALSE(d.restore_state(Json(JsonObject{})).ok());
  JsonObject bad;
  bad.emplace_back("open_events", Json(JsonArray{Json("not an object")}));
  EXPECT_FALSE(d.restore_state(Json(std::move(bad))).ok());
}

TEST(DetectorSnapshot, EmptyStateRoundTrips) {
  SequenceDetector d(tiny_model());
  SequenceDetector e(tiny_model());
  ASSERT_TRUE(e.restore_state(d.snapshot_state()).ok());
  EXPECT_EQ(e.open_events(), 0u);
}

// --- Service-level checkpoint/restore ------------------------------------

TEST(ServiceCheckpoint, ResumeOnFreshServiceFindsRemainingAnomalies) {
  Dataset d1 = make_d1(0.05);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");

  std::string path = temp_path("loglens_ckpt_test.json");

  std::set<std::string> detected;
  {
    // First service: half the stream, then checkpoint and "crash".
    LogLensService service(opts);
    service.train(d1.training);
    Agent agent = service.make_agent("D1");
    std::vector<std::string> half(d1.testing.begin(),
                                  d1.testing.begin() + d1.testing.size() / 2);
    agent.replay(half);
    service.drain();
    for (const auto& a : service.anomalies().all()) {
      if (!a.event_id.empty()) detected.insert(a.event_id);
    }
    ASSERT_TRUE(service.checkpoint(path).ok());
    EXPECT_GT(service.open_events(), 0u);
  }

  {
    // Second service, different partitioning, restored from the checkpoint.
    ServiceOptions opts2 = opts;
    opts2.detector_partitions = 5;
    LogLensService service(opts2);
    ASSERT_TRUE(service.restore(path).ok());
    EXPECT_GT(service.open_events(), 0u);

    Agent agent = service.make_agent("D1");
    std::vector<std::string> rest(d1.testing.begin() + d1.testing.size() / 2,
                                  d1.testing.end());
    agent.replay(rest);
    service.drain();
    service.heartbeat_advance(24L * 3600 * 1000);
    service.drain();
    for (const auto& a : service.anomalies().all()) {
      if (!a.event_id.empty()) detected.insert(a.event_id);
    }
  }
  std::remove(path.c_str());

  // Union of pre-crash and post-restore detections covers the ground truth
  // with no false positives — nothing was lost at the crash boundary.
  EXPECT_EQ(detected, d1.anomalous_event_ids);
}

// The checkpoint file of an unedited model is pinned byte for byte (an
// FNV-1a digest): the model with a learned keyword allowlist and field
// ranges, the open events, the anomaly count and the offsets of a
// half-streamed D1.
TEST(ServiceCheckpoint, FileBytesArePinned) {
  Dataset d1 = make_d1(0.05);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.build.learn_keywords = true;
  opts.build.learn_field_ranges = true;
  LogLensService service(opts);
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.replay(std::vector<std::string>(
      d1.testing.begin(), d1.testing.begin() + d1.testing.size() / 2));
  service.drain();
  ASSERT_GT(service.open_events(), 0u);
  const std::string path = temp_path("loglens_ckpt_bytes_test.json");
  ASSERT_TRUE(service.checkpoint(path).ok());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  EXPECT_EQ(std::string(digest), "44e913fdf6ca0ece");
}

// The checkpoint records the anomaly store's count, which is all recover()
// needs to roll the store back: it cuts the store to that count and reads
// nothing from the anomalies topic. A file without the count, or with one
// larger than the store holds, is refused and leaves the store as it was.
TEST(ServiceCheckpoint, RecoverTruncatesToTheRecordedAnomalyCount) {
  Dataset d1 = make_d1(0.05);
  const std::string path = temp_path("loglens_ckpt_count_test.json");
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.checkpoint_path = path;
  LogLensService service(opts);
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  const size_t half = d1.testing.size() / 2;
  agent.replay({d1.testing.begin(), d1.testing.begin() + half});
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  const size_t at_checkpoint = service.anomalies().count();
  ASSERT_GT(at_checkpoint, 0u);
  std::vector<std::string> stored;
  for (const auto& a : service.anomalies().all()) {
    stored.push_back(a.to_json().dump());
  }

  auto read_checkpoint = [&] {
    std::ifstream in(path);
    auto j = Json::parse(std::string((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>()));
    EXPECT_TRUE(j.ok());
    return j.ok() ? j.value() : Json(nullptr);
  };
  const Json file = read_checkpoint();
  ASSERT_NE(file.find("anomaly_count"), nullptr);
  EXPECT_EQ(file.find("anomaly_count")->as_int(),
            static_cast<int64_t>(at_checkpoint));
  ASSERT_NE(file.find("offsets"), nullptr);
  EXPECT_EQ(file.find("offsets")->find("anomaly_sink"), nullptr);

  agent.replay({d1.testing.begin() + half, d1.testing.end()});
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();
  const size_t streamed = service.anomalies().count();
  ASSERT_GT(streamed, at_checkpoint);

  auto write_with_count = [&](std::optional<int64_t> count) {
    JsonObject obj;
    for (const auto& [key, value] : file.as_object()) {
      if (key != "anomaly_count") obj.emplace_back(key, value);
    }
    if (count.has_value()) obj.emplace_back("anomaly_count", Json(*count));
    std::ofstream out(path, std::ios::trunc);
    out << Json(std::move(obj)).dump() << "\n";
  };
  write_with_count(std::nullopt);
  EXPECT_FALSE(service.recover().ok());
  write_with_count(static_cast<int64_t>(streamed) + 1);
  EXPECT_FALSE(service.recover().ok());
  EXPECT_EQ(service.anomalies().count(), streamed);

  write_with_count(static_cast<int64_t>(at_checkpoint));
  ASSERT_TRUE(service.recover().ok());
  std::vector<std::string> kept;
  for (const auto& a : service.anomalies().all()) {
    kept.push_back(a.to_json().dump());
  }
  EXPECT_EQ(kept, stored);
  std::remove(path.c_str());
}

TEST(ServiceCheckpoint, RestoreErrors) {
  LogLensService service;
  EXPECT_FALSE(service.restore("/nonexistent/ckpt.json").ok());
  std::string path = temp_path("loglens_bad_ckpt.json");
  {
    std::ofstream out(path);
    out << "{not json";
  }
  EXPECT_FALSE(service.restore(path).ok());
  {
    std::ofstream out(path);
    out << "{\"model_name\":\"x\"}";
  }
  EXPECT_FALSE(service.restore(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace loglens
