// End-to-end pipeline tests: agent -> log manager -> parser stage ->
// detector stage -> anomaly store, with heartbeats and live model updates.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/time.h"
#include "datagen/datasets.h"
#include "json/json.h"
#include "service/service.h"
#include "service/wire.h"

namespace loglens {
namespace {

ServiceOptions d1_options() {
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  return opts;
}

// Streams the test corpus, then advances log time far enough to expire any
// open event.
void run_test_stream(LogLensService& service, Agent& agent,
                     const Dataset& ds, bool heartbeats) {
  agent.replay(ds.testing);
  service.drain();
  if (heartbeats) {
    service.heartbeat_advance(24L * 3600 * 1000);
    service.drain();
  }
}

std::set<std::string> anomalous_ids(const AnomalyStore& store) {
  std::set<std::string> ids;
  for (const auto& a : store.all()) {
    if (!a.event_id.empty()) ids.insert(a.event_id);
  }
  return ids;
}

TEST(ServiceE2E, Fig4AccuracyOnD1) {
  Dataset d1 = make_d1(0.05);
  LogLensService service(d1_options());
  BuildResult build = service.train(d1.training);
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  Agent agent = service.make_agent("D1");
  run_test_stream(service, agent, d1, /*heartbeats=*/true);

  // 100% recall at event granularity, no false positives.
  EXPECT_EQ(anomalous_ids(service.anomalies()), d1.anomalous_event_ids);
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);
}

TEST(ServiceE2E, Fig5HeartbeatGapOnD1) {
  Dataset d1 = make_d1(0.05);
  // Without heartbeats the missing-end event is never reported.
  LogLensService no_hb(d1_options());
  no_hb.train(d1.training);
  Agent agent1 = no_hb.make_agent("D1");
  run_test_stream(no_hb, agent1, d1, /*heartbeats=*/false);
  auto without = anomalous_ids(no_hb.anomalies());
  EXPECT_EQ(without.size(),
            d1.anomalous_event_ids.size() - d1.missing_end_event_ids.size());
  for (const auto& id : d1.missing_end_event_ids) {
    EXPECT_FALSE(without.contains(id));
  }
  EXPECT_GT(no_hb.open_events(), 0u);  // the stuck open state is still there
}

TEST(ServiceE2E, TableVModelUpdateWithoutRestart) {
  Dataset d1 = make_d1(0.05);
  LogLensService service(d1_options());
  BuildResult build = service.train(d1.training);
  ASSERT_EQ(build.model.sequence.automata.size(), 2u);

  // Delete the "txn" automaton (the 3-state one — event type 2) through the
  // model manager, mid-service, no restart.
  ASSERT_TRUE(service.models()
                  .edit(service.model_name(),
                        [](CompositeModel& m) {
                          std::erase_if(m.sequence.automata,
                                        [](const Automaton& a) {
                                          return a.states.size() == 3;
                                        });
                        })
                  .ok());
  Agent agent = service.make_agent("D1");
  run_test_stream(service, agent, d1, /*heartbeats=*/true);

  // Only the 13 anomalies of automaton 1's event type remain.
  std::set<std::string> expected;
  for (const auto& [id, type] : d1.anomaly_event_types) {
    if (type == 1) expected.insert(id);
  }
  EXPECT_EQ(expected.size(), 13u);
  EXPECT_EQ(anomalous_ids(service.anomalies()), expected);
}

TEST(ServiceE2E, UnparsedLogsReportedAsStatelessAnomalies) {
  Dataset d1 = make_d1(0.02);
  LogLensService service(d1_options());
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.send_line("totally unknown log format &&& 123");
  agent.send_line("another stranger");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 2u);
  auto stored = service.anomalies().by_type(AnomalyType::kUnparsedLog);
  ASSERT_EQ(stored[0].logs.size(), 1u);
  EXPECT_EQ(stored[0].logs[0], "totally unknown log format &&& 123");
  EXPECT_EQ(stored[0].source, "D1");
}

// The paper's split rule ("123KB" -> "123 KB"), given only to the builder,
// reaches the parser stage and the archive replay through the model: the
// stream parses as the training corpus did.
TEST(ServiceE2E, BuilderSplitRuleParsesTheStream) {
  auto corpus = [](int from, int n) {
    std::vector<std::string> out;
    for (int i = from; i < from + n; ++i) {
      const std::string ts = format_canonical(1456218000000 + i * 1000LL);
      out.push_back(ts + " read " + std::to_string(100 + i) + "KB from disk" +
                    std::to_string(i % 4));
      out.push_back(ts + " wrote " + std::to_string(7 + i) + "KB to cache c" +
                    std::to_string(i % 3));
    }
    return out;
  };
  ServiceOptions opts = d1_options();
  opts.build.preprocessor.split_rules.push_back({"([0-9]+)(KB)", "$1 $2"});
  LogLensService service(opts);
  BuildResult build = service.train(corpus(0, 200));
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  ASSERT_EQ(build.model.patterns.size(), 2u);
  EXPECT_EQ(build.model.tokenizer, opts.build.preprocessor);

  Agent agent = service.make_agent("kb");
  agent.replay(corpus(200, 50));
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);

  auto replay = service.replay_archive("kb");
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->logs, 100u);
  EXPECT_EQ(replay->unparsed, 0u);
}

// Every message has one body: text in `value` (log lines, metrics reports)
// or a typed record in `payload` (parsed logs, anomalies), never both;
// heartbeats carry neither. Checked on every message of every topic after a
// run that produces each kind: raw and unparseable lines, parsed logs,
// heartbeat expiries, stateless and stateful anomalies, health reports.
TEST(ServiceE2E, EveryMessageCarriesOneBody) {
  Dataset d1 = make_d1(0.05);
  ASSERT_FALSE(d1.missing_end_event_ids.empty());
  ServiceOptions opts = d1_options();
  opts.metrics_report_every = 1;
  LogLensService service(opts);
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.send_line("totally unknown log format &&& 123");
  agent.send_line("another stranger");
  run_test_stream(service, agent, d1, /*heartbeats=*/true);
  ASSERT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 2u);
  ASSERT_GT(service.anomalies().count_by_type(AnomalyType::kMissingEndState),
            0u);

  Broker& broker = service.broker();
  std::map<std::pair<std::string, MessageTag>, size_t> seen;
  for (const std::string& topic : broker.topics()) {
    const uint64_t end = broker.end_offset(topic);
    const std::vector<Message> all = broker.fetch(topic, 0, end);
    ASSERT_EQ(all.size(), end) << topic;
    for (const Message& m : all) {
      ++seen[{topic, m.tag}];
      const std::string where = topic + "@" + std::to_string(m.seq);
      switch (m.tag) {
        case MessageTag::kData:
          if (topic == "parsed") {
            EXPECT_TRUE(m.value.empty()) << where;
            EXPECT_NE(parsed_payload_view(m), nullptr) << where;
          } else {
            EXPECT_TRUE(topic == "ingest" || topic == "logs") << where;
            EXPECT_FALSE(m.value.empty()) << where;
            EXPECT_EQ(m.payload, nullptr) << where;
          }
          break;
        case MessageTag::kHeartbeat:
          EXPECT_TRUE(m.value.empty()) << where;
          EXPECT_EQ(m.payload, nullptr) << where;
          break;
        case MessageTag::kAnomaly:
          EXPECT_TRUE(m.value.empty()) << where;
          EXPECT_TRUE(anomaly_from_message(m).ok()) << where;
          break;
        case MessageTag::kMetrics: {
          auto report = Json::parse(m.value);
          ASSERT_TRUE(report.ok()) << where;
          EXPECT_TRUE(report->is_object()) << where;
          EXPECT_EQ(m.payload, nullptr) << where;
          break;
        }
      }
    }
  }
  // The run reached every kind of message on the topic it travels.
  for (const auto& [topic, tag] :
       {std::pair<std::string, MessageTag>{"ingest", MessageTag::kData},
        {"logs", MessageTag::kData},
        {"parsed", MessageTag::kData},
        {"parsed", MessageTag::kHeartbeat},
        {"parsed", MessageTag::kAnomaly},
        {"anomalies", MessageTag::kAnomaly},
        {"metrics", MessageTag::kMetrics}}) {
    const size_t count = seen[{topic, tag}];
    EXPECT_GT(count, 0u) << topic << " tag " << static_cast<int>(tag);
  }
}

TEST(ServiceE2E, LogManagerArchivesEverything) {
  Dataset d1 = make_d1(0.02);
  LogLensService service(d1_options());
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.replay(d1.testing);
  service.drain();
  EXPECT_EQ(service.log_store().size(), d1.testing.size());
  EXPECT_TRUE(service.log_manager().sources().contains("D1"));
  EXPECT_EQ(service.log_store().fetch("D1").size(), d1.testing.size());
}

TEST(ServiceE2E, BackgroundModeMatchesDrainMode) {
  Dataset d1 = make_d1(0.02);

  LogLensService sync_service(d1_options());
  sync_service.train(d1.training);
  Agent a1 = sync_service.make_agent("D1");
  run_test_stream(sync_service, a1, d1, true);

  LogLensService async_service(d1_options());
  async_service.train(d1.training);
  async_service.start();
  Agent a2 = async_service.make_agent("D1");
  a2.replay(d1.testing);
  // Move logs through ingest while the runners work in the background.
  for (int i = 0;
       i < 200 && async_service.log_store().size() < d1.testing.size(); ++i) {
    async_service.log_manager().pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Quiesce, then expire open states deterministically.
  async_service.stop();
  async_service.heartbeat_advance(24L * 3600 * 1000);
  async_service.drain();

  EXPECT_EQ(anomalous_ids(sync_service.anomalies()),
            anomalous_ids(async_service.anomalies()));
}

TEST(ServiceE2E, Fig4AccuracyOnD2) {
  Dataset d2 = make_d2(0.05);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D2");
  LogLensService service(opts);
  BuildResult build = service.train(d2.training);
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  ASSERT_EQ(build.model.sequence.automata.size(), 3u);
  Agent agent = service.make_agent("D2");
  run_test_stream(service, agent, d2, true);
  EXPECT_EQ(anomalous_ids(service.anomalies()), d2.anomalous_event_ids);
}

}  // namespace
}  // namespace loglens
