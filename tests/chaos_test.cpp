// Chaos suite: the full pipeline under randomized fault injection.
//
// The determinism trick: every armed site carries a max_triggers cap that is
// strictly below the consumer's retry budget (broker produce retries 5
// attempts, engine tasks 4), so every injected failure is eventually
// absorbed by a retry — which makes it *provable* that the anomaly output of
// a faulted run must equal the fault-free run, even though thread
// interleavings differ. Crash recovery is exercised both explicitly
// (checkpoint + recover() mid-run) and through the supervisor thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "service/service.h"
#include "streaming/job.h"
#include "trace/trace.h"

namespace loglens {
namespace {

constexpr int64_t kDayMs = 24LL * 3600 * 1000;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Canonical form of the anomaly report: sorted JSON dumps. Runs are compared
// as multisets because partition interleaving permutes the store order.
std::multiset<std::string> normalized(const AnomalyStore& store) {
  std::multiset<std::string> out;
  for (const auto& a : store.all()) out.insert(a.to_json().dump());
  return out;
}

std::set<std::string> detected_ids(const AnomalyStore& store) {
  std::set<std::string> out;
  for (const auto& a : store.all()) {
    if (!a.event_id.empty()) out.insert(a.event_id);
  }
  return out;
}

// Arms every pipeline site with capped specs. Caps are the safety argument:
//   produce: 3 fires  < 5 produce attempts  -> no produce ever errors
//   task.*:  3 fires  < 4 task attempts     -> no dead letters, no fatals
//   fetch:   transparent (reads as an empty poll) at any count
void arm_chaos(FaultInjector& faults) {
  FaultSpec produce;
  produce.probability = 0.05;
  produce.max_triggers = 3;
  faults.arm(kFaultSiteProduce, produce);

  FaultSpec fetch;
  fetch.probability = 0.05;
  fetch.max_triggers = 4;
  faults.arm(kFaultSiteFetch, fetch);

  FaultSpec start;  // latency spike, not a failure
  start.action = FaultAction::kDelay;
  start.delay_ms = 2;
  start.probability = 0.05;
  start.max_triggers = 3;
  faults.arm(kFaultSiteTaskStart, start);

  FaultSpec process;
  process.probability = 0.3;
  process.max_triggers = 3;
  faults.arm(kFaultSiteTaskProcess, process);

  FaultSpec finish;
  finish.probability = 0.2;
  finish.max_triggers = 3;
  faults.arm(kFaultSiteTaskFinish, finish);
}

// One full end-to-end run: train, stream the test split, expire leftovers.
std::multiset<std::string> run_pipeline(const Dataset& d,
                                        MetricsRegistry* registry,
                                        FaultInjector* faults) {
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = registry;
  opts.faults = faults;
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");
  agent.replay(d.testing);
  service.drain();
  service.heartbeat_advance(kDayMs);
  service.drain();
  EXPECT_FALSE(service.failed());
  return normalized(service.anomalies());
}

uint64_t task_retries(MetricsRegistry& registry) {
  return registry
             .counter("loglens_engine_task_retries_total",
                      {{"stage", "parser"}})
             .value() +
         registry
             .counter("loglens_engine_task_retries_total",
                      {{"stage", "detector"}})
             .value();
}

TEST(ChaosTest, OutputEqualsFaultFreeRunAcrossSeeds) {
  Dataset d = make_d1(0.05);
  MetricsRegistry clean_registry;
  auto expected = run_pipeline(d, &clean_registry, nullptr);
  ASSERT_FALSE(expected.empty());

  for (uint64_t seed : {1u, 2u, 3u}) {
    MetricsRegistry registry;
    FaultInjector faults(seed, &registry);
    arm_chaos(faults);
    auto got = run_pipeline(d, &registry, &faults);
    EXPECT_EQ(got, expected) << "seed " << seed;
    // The run must actually have been under fire, and the injected task
    // failures must have been absorbed by retries.
    EXPECT_GT(faults.total_triggered(), 0u) << "seed " << seed;
    EXPECT_GT(task_retries(registry), 0u) << "seed " << seed;
    EXPECT_EQ(registry
                  .counter("loglens_engine_dead_letter_records_total",
                           {{"stage", "parser"}})
                  .value(),
              0u);
    EXPECT_EQ(registry
                  .counter("loglens_engine_dead_letter_records_total",
                           {{"stage", "detector"}})
                  .value(),
              0u);
  }
}

TEST(ChaosTest, RecoverRewindsToCheckpointAndConverges) {
  Dataset d = make_d1(0.05);
  std::string path = temp_path("loglens_chaos_recover.json");

  // Control: the same stream with no crash.
  MetricsRegistry control_registry;
  auto expected = run_pipeline(d, &control_registry, nullptr);

  MetricsRegistry registry;
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.checkpoint_path = path;
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");

  const size_t half = d.testing.size() / 2;
  const size_t three_quarters = d.testing.size() * 3 / 4;
  agent.replay({d.testing.begin(), d.testing.begin() + half});
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  const size_t at_checkpoint = service.anomalies().count();

  // Keep processing past the checkpoint, then "crash" and recover: state,
  // offsets, and the anomaly store must all roll back to the cut...
  agent.replay({d.testing.begin() + half, d.testing.begin() + three_quarters});
  service.drain();
  ASSERT_TRUE(service.recover().ok());
  EXPECT_EQ(service.anomalies().count(), at_checkpoint);
  EXPECT_EQ(service.recoveries(), 1u);

  // ...and replaying the tail converges to exactly the no-crash outcome:
  // at-least-once redelivery upstream, exactly-once in the anomaly report.
  agent.replay({d.testing.begin() + three_quarters, d.testing.end()});
  service.drain();
  service.heartbeat_advance(kDayMs);
  service.drain();
  EXPECT_EQ(normalized(service.anomalies()), expected);
  EXPECT_EQ(detected_ids(service.anomalies()), d.anomalous_event_ids);

  // The replayed third quarter reached the detector twice (once before the
  // crash, once re-emitted by the parser) — the dedup guard ate the copies.
  uint64_t dedup = 0;
  for (size_t p = 0; p < 2; ++p) {
    dedup += registry
                 .counter("loglens_detector_dedup_skipped_total",
                          {{"partition", std::to_string(p)}})
                 .value();
  }
  EXPECT_GT(dedup, 0u);
  std::remove(path.c_str());
}

// Crash recovery must not sever the trace tree: batches redelivered after
// recover() carry their original trace identity, so every detector pipeline
// span that has a parent still chains to a parser pipeline span, and the
// whole run records spans without overflowing the per-thread buffers.
TEST(ChaosTest, TraceIdentitySurvivesRecoveryReplay) {
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);

  Dataset d = make_d1(0.05);
  std::string path = temp_path("loglens_chaos_trace_recover.json");
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.checkpoint_path = path;
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");

  const size_t half = d.testing.size() / 2;
  agent.replay({d.testing.begin(), d.testing.begin() + half});
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  agent.replay({d.testing.begin() + half, d.testing.end()});
  service.drain();
  ASSERT_TRUE(service.recover().ok());
  // The rewound tail is redelivered and re-traced on the replayed drain.
  service.drain();
  service.heartbeat_advance(kDayMs);
  service.drain();
  EXPECT_EQ(detected_ids(service.anomalies()), d.anomalous_event_ids);

  auto spans = registry.take_trace_spans();
  std::set<uint64_t> parser_pipeline_ids;
  size_t detector_pipelines = 0;
  size_t chained = 0;
  for (const auto& span : spans) {
    if (span.name == "parser.pipeline") parser_pipeline_ids.insert(span.span_id);
  }
  for (const auto& span : spans) {
    if (span.name != "detector.pipeline") continue;
    ++detector_pipelines;
    if (span.parent_id != 0) {
      ++chained;
      EXPECT_EQ(parser_pipeline_ids.count(span.parent_id), 1u)
          << "detector pipeline parented to a span that is not a parser "
             "pipeline";
    }
  }
  EXPECT_GT(parser_pipeline_ids.size(), 0u);
  EXPECT_GT(detector_pipelines, 0u);
  EXPECT_GT(chained, 0u) << "no detector batch chained to a parser batch";
  EXPECT_EQ(registry.spans_dropped(), 0u);

  trace::set_enabled(was_enabled);
  std::remove(path.c_str());
}

TEST(ChaosTest, SupervisorRecoversParkedRunner) {
  Dataset d = make_d1(0.05);
  std::string path = temp_path("loglens_chaos_supervisor.json");
  MetricsRegistry registry;
  FaultInjector faults(5, &registry);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.faults = &faults;
  opts.checkpoint_path = path;
  opts.supervise = true;
  opts.supervise_interval_ms = 5;
  opts.workers = 1;  // serial partitions: the first guarded call below sees
                     // all 4 fires back to back and the batch goes fatal
  LogLensService service(opts);
  service.train(d.training);
  ASSERT_TRUE(service.checkpoint(path).ok());

  // Exactly the task retry budget: one on_batch_end exhausts its 4 attempts
  // (fatal batch -> runner parks), after which the cap is spent and the
  // recovered run sails through.
  FaultSpec finish;
  finish.probability = 1.0;
  finish.max_triggers = 4;
  faults.arm(kFaultSiteTaskFinish, finish);

  service.start();
  Agent agent = service.make_agent("D1");
  agent.replay(d.testing);
  // Pump ingest -> logs ourselves (drain() would also recover in place,
  // which is exactly what this test must NOT lean on): the running parser
  // hits the finish faults, parks, and the supervisor thread recovers it.
  for (int i = 0; i < 2000 && service.recoveries() == 0; ++i) {
    service.log_manager().drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(service.recoveries(), 1u);  // recovered while live, not at stop()
  service.stop();  // finishes any remaining drain synchronously
  service.heartbeat_advance(kDayMs);
  service.drain();

  EXPECT_GE(service.recoveries(), 1u);
  EXPECT_FALSE(service.failed());
  EXPECT_EQ(detected_ids(service.anomalies()), d.anomalous_event_ids);
  EXPECT_GE(registry.counter("loglens_service_recoveries_total").value(), 1u);
  std::remove(path.c_str());
}

TEST(ChaosTest, PoisonMessagesRouteToDeadLetterTopic) {
  // A message whose processing *always* throws must not kill the job: it
  // goes to the dead-letter topic and the stream keeps flowing.
  struct EchoTask : PartitionTask {
    void process(const Message& m, TaskContext& ctx) override { ctx.emit(m); }
  };
  MetricsRegistry registry;
  FaultInjector faults(77, &registry);
  Broker broker(&registry, &faults);
  broker.create_topic("in");
  broker.create_topic("out");
  broker.create_topic("dlq");

  EngineOptions eopts;
  eopts.partitions = 1;
  eopts.workers = 1;
  eopts.metrics = &registry;
  eopts.stage = "poison";
  eopts.faults = &faults;
  eopts.task_max_attempts = 3;
  eopts.retry_base_ms = 0;
  StreamEngine engine(eopts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<EchoTask>();
  });
  JobOptions jopts;
  jopts.input_topic = "in";
  jopts.output_topic = "out";
  jopts.name = "poison";
  jopts.metrics = &registry;
  jopts.dead_letter_topic = "dlq";
  JobRunner runner(broker, engine, jopts);

  for (int i = 0; i < 5; ++i) {
    Message m;
    m.key = "k";
    m.value = "v" + std::to_string(i);
    ASSERT_TRUE(broker.produce("in", m).ok());
  }
  FaultSpec process;  // uncapped: every attempt fails, every message poisons
  faults.arm(kFaultSiteTaskProcess, process);
  runner.drain();

  EXPECT_FALSE(runner.failed());
  EXPECT_EQ(broker.end_offset("dlq"), 5u);
  EXPECT_EQ(broker.end_offset("out"), 0u);
  EXPECT_EQ(registry
                .counter("loglens_job_dead_letter_records_total",
                         {{"job", "poison"}})
                .value(),
            5u);
  EXPECT_GT(registry
                .counter("loglens_engine_task_retries_total",
                         {{"stage", "poison"}})
                .value(),
            0u);

  // Drop the fault: fresh input flows end to end again.
  faults.disarm_all();
  Message ok;
  ok.key = "k";
  ok.value = "fine";
  ASSERT_TRUE(broker.produce("in", ok).ok());
  runner.drain();
  EXPECT_EQ(broker.end_offset("out"), 1u);
  EXPECT_EQ(broker.end_offset("dlq"), 5u);
}

// The tiered anomaly store under crash-shaped storage faults: segment
// flushes die mid-write (torn files at the final path) while the pipeline
// streams, and recover() must still roll the anomaly report back exactly once
// — the faulted, disk-backed run converges to the in-memory fault-free run.
TEST(ChaosTest, RecoverExactlyOnceWhenSegmentFlushDiesMidWrite) {
  Dataset d = make_d1(0.05);
  std::string path = temp_path("loglens_chaos_storage_recover.json");
  std::string dir = temp_path("loglens_chaos_storage_dir");
  std::filesystem::remove_all(dir);

  MetricsRegistry control_registry;
  auto expected = run_pipeline(d, &control_registry, nullptr);

  MetricsRegistry registry;
  FaultInjector faults(37, &registry);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.faults = &faults;
  opts.checkpoint_path = path;
  opts.storage.dir = dir;
  opts.storage.hot_max_docs = 8;  // tiny hot tier: flush constantly
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");

  // Every flush attempt dies mid-write until the cap is spent. Inserts
  // must absorb the failures (the doc stays hot, the flush retries on the
  // next threshold crossing).
  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.probability = 0.5;
  torn.max_triggers = 4;
  faults.arm(kFaultSiteSegmentFlush, torn);

  const size_t half = d.testing.size() / 2;
  const size_t three_quarters = d.testing.size() * 3 / 4;
  agent.replay({d.testing.begin(), d.testing.begin() + half});
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  const size_t at_checkpoint = service.anomalies().count();

  // Stream past the checkpoint, then crash-recover. recover() truncates the
  // store to the checkpointed count, dropping or rewriting the sealed
  // segments past it: every anomaly before the cut exactly once, none of
  // the post-cut ones.
  agent.replay({d.testing.begin() + half, d.testing.begin() + three_quarters});
  service.drain();
  ASSERT_TRUE(service.recover().ok());
  EXPECT_EQ(service.anomalies().count(), at_checkpoint);

  // Stream the rest (the rewound third quarter is redelivered upstream):
  // at-least-once delivery, exactly-once in the report, byte-identical to
  // the in-memory fault-free control.
  agent.replay({d.testing.begin() + three_quarters, d.testing.end()});
  service.drain();
  service.heartbeat_advance(kDayMs);
  service.drain();
  ASSERT_TRUE(service.anomalies().flush().ok());
  EXPECT_EQ(normalized(service.anomalies()), expected);
  EXPECT_EQ(detected_ids(service.anomalies()), d.anomalous_event_ids);

  // The run really exercised the tiered path: faults fired, segments exist.
  // The log archive seals every 8 rows under the same torn writes and
  // still holds every line sent, once.
  EXPECT_GT(faults.triggered(kFaultSiteSegmentFlush), 0u);
  EXPECT_GE(service.anomalies().docs().segment_count(), 1u);
  EXPECT_GE(service.log_store().segment_count(), 1u);
  EXPECT_EQ(service.log_store().size(), d.testing.size());
  EXPECT_EQ(service.log_store().fetch("D1"), d.testing);
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

// Truncate, then crash. The broker frees what every reader has consumed,
// so a checkpoint's pins must keep exactly what recover() replays. The
// stream runs more than three chunks past the checkpoint: `logs` and
// `parsed` are truncated behind the pipeline, but never past the pins,
// when the crash comes. A checkpoint torn mid-write in between must leave
// the pins with the file still in force.
TEST(ChaosTest, TruncateThenCrashRecoversExactlyOnce) {
  const Dataset d = make_d1(1.25);
  const size_t chunk = Broker::kChunkMessages;
  const size_t cut = chunk + chunk / 4;
  const size_t crash_at = cut + 3 * chunk + 100;
  ASSERT_GT(d.testing.size(), crash_at);
  std::string path = temp_path("loglens_chaos_truncate.json");

  MetricsRegistry control_registry;
  auto expected = run_pipeline(d, &control_registry, nullptr);

  MetricsRegistry registry;
  FaultInjector faults(5, &registry);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.faults = &faults;
  opts.checkpoint_path = path;
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");
  Broker& broker = service.broker();
  auto lines = [&](size_t from, size_t to) {
    return std::vector<std::string>(d.testing.begin() + from,
                                    d.testing.begin() + to);
  };

  agent.replay(lines(0, cut));
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  const size_t at_checkpoint = service.anomalies().count();
  // Drained, so the checkpointed offsets are the topic ends.
  const uint64_t logs_pin = broker.end_offset("logs");
  const uint64_t parsed_pin = broker.end_offset("parsed");

  for (size_t from = cut; from < crash_at; from += chunk) {
    agent.replay(lines(from, std::min(from + chunk, crash_at)));
    service.drain();
  }
  EXPECT_GT(broker.low_water("logs"), 0u);
  EXPECT_GT(broker.low_water("parsed"), 0u);
  EXPECT_LE(broker.low_water("logs"), logs_pin);
  EXPECT_LE(broker.low_water("parsed"), parsed_pin);
  EXPECT_GT(broker.low_water("ingest"), logs_pin);  // nothing pins it
  // Nothing pins `anomalies`: the sink frees it behind itself.
  EXPECT_LT(
      broker.end_offset("anomalies") - broker.low_water("anomalies"),
      chunk);

  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteCheckpointWrite, torn);
  EXPECT_FALSE(service.checkpoint(path).ok());
  EXPECT_LE(broker.low_water("logs"), logs_pin);
  EXPECT_LE(broker.low_water("parsed"), parsed_pin);

  // Crash: the replay starts at the pins, and the report converges to the
  // fault-free run exactly once.
  ASSERT_TRUE(service.recover().ok());
  EXPECT_EQ(service.anomalies().count(), at_checkpoint);
  agent.replay(lines(crash_at, d.testing.size()));
  service.drain();
  service.heartbeat_advance(kDayMs);
  service.drain();
  EXPECT_EQ(normalized(service.anomalies()), expected);
  EXPECT_EQ(detected_ids(service.anomalies()), d.anomalous_event_ids);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(ChaosTest, TornCheckpointWriteKeepsLastGoodFile) {
  Dataset d = make_d1(0.05);
  std::string path = temp_path("loglens_chaos_torn.json");
  MetricsRegistry registry;
  FaultInjector faults(21, &registry);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  opts.metrics = &registry;
  opts.faults = &faults;
  LogLensService service(opts);
  service.train(d.training);
  Agent agent = service.make_agent("D1");
  const size_t half = d.testing.size() / 2;
  agent.replay({d.testing.begin(), d.testing.begin() + half});
  service.drain();
  ASSERT_TRUE(service.checkpoint(path).ok());
  const std::string good = slurp(path);
  ASSERT_FALSE(good.empty());

  // The pipeline moved on; the next checkpoint attempt tears mid-write.
  agent.replay({d.testing.begin() + half, d.testing.end()});
  service.drain();
  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteCheckpointWrite, torn);
  EXPECT_FALSE(service.checkpoint(path).ok());
  // tmp+rename protocol: the published file is byte-identical to the last
  // good checkpoint, and a fresh service can still restore from it.
  EXPECT_EQ(slurp(path), good);
  {
    MetricsRegistry fresh_registry;
    ServiceOptions fresh_opts;
    fresh_opts.build.discovery = recommended_discovery("D1");
    fresh_opts.metrics = &fresh_registry;
    LogLensService fresh(fresh_opts);
    EXPECT_TRUE(fresh.restore(path).ok());
  }
  // An injected hard failure also leaves the file alone. Re-arming keeps
  // the site's trigger count (1 from the torn write), so the cap must be
  // cumulative for this to fire exactly once more.
  FaultSpec die;
  die.max_triggers = 2;
  faults.arm(kFaultSiteCheckpointWrite, die);
  EXPECT_FALSE(service.checkpoint(path).ok());
  EXPECT_EQ(slurp(path), good);
  // Caps spent: checkpointing works again.
  EXPECT_TRUE(service.checkpoint(path).ok());
  EXPECT_NE(slurp(path), good);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace loglens
