// Failure-injection tests: malformed and adversarial inputs must degrade
// gracefully everywhere (dropped or reported, never crashing or poisoning
// the pipeline).
#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "service/service.h"
#include "service/wire.h"

namespace loglens {
namespace {

TEST(Robustness, GarbageOnParsedTopicIsDropped) {
  // A rogue producer writes junk straight to the detector's input topic;
  // real logs around it must still be processed.
  Dataset d1 = make_d1(0.02);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  LogLensService service(opts);
  service.train(d1.training);

  Message junk;
  junk.key = "x";
  junk.value = "{not valid json";
  junk.tag = MessageTag::kData;
  junk.source = "rogue";
  service.broker().produce("parsed", junk);
  junk.value = R"({"pattern_id":"not a number"})";
  service.broker().produce("parsed", junk);

  Agent agent = service.make_agent("D1");
  agent.replay(d1.testing);
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();

  std::set<std::string> ids;
  for (const auto& a : service.anomalies().all()) {
    if (!a.event_id.empty()) ids.insert(a.event_id);
  }
  EXPECT_EQ(ids, d1.anomalous_event_ids);
}

TEST(Robustness, HostileLogLinesNeverCrashTheParserStage) {
  Dataset d1 = make_d1(0.02);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  LogLensService service(opts);
  service.train(d1.training);
  Agent agent = service.make_agent("hostile");

  std::vector<std::string> hostile = {
      "",                                     // empty
      "   \t   ",                             // whitespace only
      std::string(100000, 'a'),               // very long single token
      std::string(5000, ' '),                 // very long whitespace
      "%{WORD:x} %{NUMBER:y}",                // GROK syntax as data
      "{\"json\": \"looking\"}",              // JSON-looking
      "2016/02/23 09:00:31",                  // timestamp only
      "2016/99/99 99:99:99 nonsense date",    // invalid timestamp
      std::string("nul\0byte embedded", 17),  // embedded NUL
      "\xff\xfe binary bytes \x01\x02",       // non-UTF8 bytes
  };
  // Plus a deep log of many tokens.
  std::string wide;
  for (int i = 0; i < 5000; ++i) wide += "t" + std::to_string(i) + " ";
  hostile.push_back(wide);

  agent.replay(hostile);
  service.drain();
  // Everything unparseable surfaced as stateless anomalies (empty lines
  // tokenize to nothing but still fail to parse, which is correct).
  EXPECT_GT(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);
  // The pipeline is still healthy afterwards.
  Agent agent2 = service.make_agent("D1");
  agent2.replay({d1.testing.front()});
  service.drain();
  SUCCEED();
}

TEST(Robustness, DetectorSurvivesLogsWithoutTimestamps) {
  // Parsed logs with ts = -1 (no recognizable timestamp) flow through the
  // stateful stage without breaking duration/expiry logic.
  SequenceModel m;
  m.id_fields = {{1, "F"}, {2, "F"}};
  Automaton a;
  a.id = 1;
  a.begin_patterns = {1};
  a.end_patterns = {2};
  a.states[1] = {1, 1, 1};
  a.states[2] = {2, 1, 1};
  a.max_duration_ms = 100;
  m.automata.push_back(a);
  SequenceDetector det(m);

  ParsedLog p1;
  p1.pattern_id = 1;
  p1.timestamp_ms = -1;
  p1.fields.emplace_back("F", Json("e1"));
  EXPECT_TRUE(det.on_log(p1, "s").empty());
  // Heartbeats cannot expire an event with no first timestamp...
  EXPECT_TRUE(det.on_heartbeat(1'000'000).empty());
  EXPECT_EQ(det.open_events(), 1u);
  // ...but the end state still closes it, with duration checks skipped.
  ParsedLog p2 = p1;
  p2.pattern_id = 2;
  auto anomalies = det.on_log(p2, "s");
  EXPECT_TRUE(anomalies.empty());
  EXPECT_EQ(det.open_events(), 0u);
}

TEST(Robustness, AnomalyWithWeirdContentRoundTrips) {
  Anomaly a;
  a.type = AnomalyType::kUnparsedLog;
  a.reason = "contains \"quotes\" and\nnewlines\tand \\ slashes";
  a.event_id = std::string("\x01\x02", 2);
  a.logs = {std::string(10000, 'x'), ""};
  auto text = a.to_json().dump();
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok());
  auto back = Anomaly::from_json(parsed.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), a);
}

TEST(Robustness, RefusedDeployLeavesTheRunningModelServing) {
  // The store holds only models that loaded back, so a corrupt version
  // cannot be stored: an edit to a split rule that does not compile is
  // refused, and the running model stays in place.
  Dataset d1 = make_d1(0.02);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  LogLensService service(opts);
  service.train(d1.training);
  EXPECT_FALSE(service.models()
                   .edit(service.model_name(),
                         [](CompositeModel& m) {
                           m.tokenizer.split_rules.push_back({"([0-9]+", "$1"});
                         })
                   .ok());
  EXPECT_EQ(service.model_store().latest(service.model_name())->version, 1);
  // The pipeline still runs with the previously deployed model.
  Agent agent = service.make_agent("D1");
  agent.replay({d1.testing.front()});
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);
}

}  // namespace
}  // namespace loglens
