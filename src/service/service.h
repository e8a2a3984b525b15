// LogLensService: the fully wired system of Figure 1.
//
//   agents -> [ingest] -> LogManager -> [logs] -> parser engine ->
//   [parsed] -> detector engine -> [anomalies] -> anomaly store
//
// plus the model side (builder -> store -> manager -> controller ->
// rebroadcast into both engines) and the heartbeat controller feeding
// predicted log time into [parsed].
//
// Two modes:
//   - start()/stop(): background JobRunners — the deployed service.
//   - drain(): synchronous end-to-end processing of everything queued —
//     what the experiments use for determinism.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "faults/fault_injector.h"
#include "service/agent.h"
#include "service/heartbeat.h"
#include "service/log_manager.h"
#include "service/model_ops.h"
#include "service/tasks.h"
#include "storage/stores.h"
#include "streaming/engine.h"
#include "streaming/job.h"

namespace loglens {

struct ServiceOptions {
  size_t parser_partitions = 2;
  size_t detector_partitions = 2;
  // Partitions of one stage that run at once (EngineOptions::workers): each
  // stage's engine runs partitions on its job thread plus `workers - 1` pool
  // helpers, so 1 runs every partition serially on the job thread.
  size_t workers = 2;
  ParserTaskOptions parser;
  DetectorOptions detector;
  std::string model_name = "default";
  BuildOptions build;
  // Observability: registry every component reports into (nullptr -> the
  // process-wide global one) and how often each JobRunner publishes a JSON
  // health report to the "metrics" topic (0, the default, disables them).
  // Nothing reads that topic, so it is never freed: a service that turns
  // the reports on stores every one of them for its lifetime.
  MetricsRegistry* metrics = nullptr;
  size_t metrics_report_every = 0;
  // Fault tolerance (docs/FAULTS.md). `faults` is threaded into the broker
  // and both engines; poison messages land on `dead_letter_topic`.
  // `checkpoint_path` names the file checkpoint()/recover() use; with
  // `supervise`, start() also launches a watchdog thread that calls
  // recover() whenever a runner reports a fatal batch.
  FaultInjector* faults = nullptr;
  size_t task_max_attempts = 4;
  // Tiered storage (docs/DESIGN.md §6). `storage.dir` is the base segment
  // directory: the log archive flushes under <dir>/logs and the anomaly
  // store under <dir>/anomalies (empty keeps both in-memory, the seed
  // behaviour). Unset `storage.metrics`/`storage.faults` inherit the
  // service-level ones above.
  DocumentStoreOptions storage;
  std::string dead_letter_topic = "dead_letters";
  std::string checkpoint_path;
  bool supervise = false;
  int64_t supervise_interval_ms = 20;
};

class LogLensService {
 public:
  explicit LogLensService(ServiceOptions options = {});
  ~LogLensService();

  // Builds the model from training lines, stores it, and deploys it to the
  // pipeline.
  BuildResult train(const std::vector<std::string>& training_lines);

  // Creates an agent shipping into this service.
  Agent make_agent(const std::string& source);

  // Asynchronous service mode.
  void start();
  void stop();

  // Synchronous mode: process everything currently queued, end to end. The
  // heartbeat controller observes the parsed logs in every round, so call
  // drain() from the same control flow as heartbeat_tick().
  void drain();

  // Heartbeat controller ticks (also see HeartbeatController docs). Call
  // drain() afterwards (or rely on the background runners) so the detector
  // consumes the emitted heartbeats.
  size_t heartbeat_tick() { return heartbeat_.tick(); }
  size_t heartbeat_advance(int64_t ms) { return heartbeat_.tick_advance(ms); }

  Broker& broker() { return broker_; }
  ModelManager& models() { return *model_manager_; }
  AnomalyStore& anomalies() { return anomaly_store_; }
  LogStore& log_store() { return log_manager_.log_store(); }
  LogManager& log_manager() { return log_manager_; }
  ModelStore& model_store() { return model_store_; }

  size_t open_events();
  const std::string& model_name() const { return options_.model_name; }

  // Checkpointing (extension): persist the deployed model, every detector
  // partition's open events and the anomaly count to a JSON file, and
  // restore the first two into a (fresh) service — possibly with a
  // different partition count; open events are re-sharded by their event
  // id. Call on a quiesced service (stopped or drained). A checkpoint to
  // ServiceOptions::checkpoint_path pins the `logs` and `parsed` topics at
  // the offsets it records, so the broker keeps what recover() replays; the
  // pins move with each checkpoint that is published.
  Status checkpoint(const std::string& path);
  Status restore(const std::string& path);

  // Crash recovery: re-restores the checkpoint at
  // ServiceOptions::checkpoint_path *into the running service* — deployed
  // model, detector state, and the consumer offsets recorded at checkpoint
  // time (at-least-once redelivery; the detector's dedup guard and the
  // anomaly-store rollback below keep outputs exactly-once). The anomaly
  // store is truncated to its checkpointed count, reading nothing from the
  // topic, and the sink skips past any post-checkpoint output (the replay
  // re-emits it). Called by the supervisor thread when a runner fails; also
  // callable directly (e.g. chaos tests simulating a hard crash).
  Status recover() LOGLENS_EXCLUDES(recover_mu_);

  // True while either job runner is parked on a fatal batch.
  bool failed() const {
    return parser_runner_->failed() || detector_runner_->failed();
  }
  uint64_t recoveries() const { return recoveries_.load(); }

  // Post-facto analysis (Figure 1's Log Storage role: "stored logs can be
  // used ... for future log replaying to perform further analysis"): re-runs
  // detection over a source's archived logs — with the *currently deployed*
  // model — without touching the live pipeline's state or anomaly store.
  // Optional [from_ms, to_ms] bounds filter on the logs' embedded
  // timestamps (logs without one always pass). The replay ends with a far-
  // future heartbeat so open events are fully resolved.
  struct ReplayResult {
    size_t logs = 0;
    size_t unparsed = 0;
    std::vector<Anomaly> anomalies;
  };
  StatusOr<ReplayResult> replay_archive(const std::string& source,
                                        int64_t from_ms = INT64_MIN,
                                        int64_t to_ms = INT64_MAX);

 private:
  void sink_drain();
  Status restore_internal(const std::string& path, bool in_place);
  void supervisor_loop();

  ServiceOptions options_;
  Broker broker_;
  LogManager log_manager_;
  std::shared_ptr<ModelBroadcast> parser_broadcast_;
  std::shared_ptr<ModelBroadcast> detector_broadcast_;
  std::unique_ptr<StreamEngine> parser_engine_;
  std::unique_ptr<StreamEngine> detector_engine_;
  std::unique_ptr<JobRunner> parser_runner_;
  std::unique_ptr<JobRunner> detector_runner_;
  HeartbeatController heartbeat_;
  ModelStore model_store_;
  std::unique_ptr<ModelController> model_controller_;
  std::unique_ptr<ModelManager> model_manager_;
  AnomalyStore anomaly_store_;
  Consumer anomaly_sink_;
  std::atomic<bool> running_{false};

  // Retention pins, only with a checkpoint_path: `logs` and `parsed` are
  // held at the last published checkpoint's parser and detector offsets.
  // `anomalies` needs none: recover() never re-reads it, so the sink frees
  // it behind itself. Checkpoints come from the quiesced control flow, so
  // the pins need no lock of their own.
  std::unique_ptr<RetentionHold> logs_pin_;
  std::unique_ptr<RetentionHold> parsed_pin_;

  // Crash supervisor (see ServiceOptions::supervise).
  std::thread supervisor_;
  std::atomic<bool> supervising_{false};
  // Serializes recover() callers. The outermost rank in the hierarchy:
  // recovery drives engines, the broker, consumers, and the stores while
  // holding it, so it must be acquired before any of their locks.
  RankedMutex recover_mu_{lock_rank::kServiceRecover};
  std::atomic<uint64_t> recoveries_{0};
  Counter* recoveries_total_ = nullptr;
};

}  // namespace loglens
