// The per-layer run: LogLensService's pipeline rebuilt from the same public
// classes and options service.cpp wires together, with the benchmark's own
// timers around every call into a layer. Partition tasks are wrapped in a
// timing decorator. Nothing inside src/ is instrumented for this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

// Times one partition's on_batch_start -> on_batch_end, once per batch.
class TimedTask final : public loglens::PartitionTask {
 public:
  explicit TimedTask(std::unique_ptr<loglens::PartitionTask> inner)
      : inner_(std::move(inner)) {}

  void on_batch_start(loglens::TaskContext& ctx) override {
    start_ = Clock::now();
    inner_->on_batch_start(ctx);
  }
  void process(const loglens::Message& m, loglens::TaskContext& ctx) override {
    inner_->process(m, ctx);
  }
  void on_batch_end(loglens::TaskContext& ctx) override {
    inner_->on_batch_end(ctx);
    batch_s_.push_back(seconds_between(start_, Clock::now()));
  }

  // Busy seconds per batch since the last call, in batch order. Called only
  // between batches: the engine's end-of-batch barrier orders the worker's
  // writes before the read.
  std::vector<double> take_batch_seconds() {
    return std::exchange(batch_s_, {});
  }

 private:
  std::unique_ptr<loglens::PartitionTask> inner_;
  Clock::time_point start_;
  std::vector<double> batch_s_;
};

// Parser counters summed over parsers: a redeploy rebuilds a partition's
// LogParser, which restarts its stats.
struct ParserCounts {
  uint64_t logs = 0;
  uint64_t unparsed = 0;
  uint64_t index_hits = 0;
  uint64_t match_attempts = 0;
  uint64_t set_fallbacks = 0;

  ParserCounts& operator+=(const ParserCounts& o);
};

// One streaming stage: its engine, job runner and timing decorators.
struct Stage {
  std::unique_ptr<loglens::StreamEngine> engine;
  std::unique_ptr<loglens::JobRunner> job;
  std::vector<TimedTask*> timers;  // owned by `engine`
  double job_s = 0;       // JobRunner::drain
  double critical_s = 0;  // per batch, the longest partition's task time
  double parallel_s = 0;  // the other partitions' task time
  uint64_t batches = 0;
  uint64_t records = 0;

  // Timed JobRunner::drain, then folds the batches' task times.
  void drain();
};

class TracedPipeline {
 public:
  explicit TracedPipeline(const Inputs& in);
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  // ModelBuilder::build, ModelManager::deploy and a drain, as
  // LogLensService::train does.
  loglens::BuildResult train(const std::vector<std::string>& lines);

  void send(uint32_t source, std::string_view line) {
    agents_[source].send_line(line);
  }
  template <class F>
  void time_ingest(F&& f) {
    const Clock::time_point start = Clock::now();
    f();
    ingest_s_ += seconds_between(start, Clock::now());
  }
  // LogLensService::drain()'s loop (without its fault-recovery branch) with
  // a timer around each call.
  void drain();
  void heartbeat_advance(int64_t ms);
  void deploy(const loglens::CompositeModel& model);
  size_t open_events();

  loglens::AnomalyStore& anomalies() { return anomaly_store_; }
  loglens::LogStore& log_store() { return log_manager_.log_store(); }
  loglens::Broker& broker() { return broker_; }

  // Zeroes the stream-side timers and batch counts; model build and deploy
  // time keep accumulating. Parser and detector counters need no reset:
  // set-up drains carry only control operations, so no task has seen a log.
  void begin_pass();

  // Per-layer metrics of the pass, as (name, value) pairs.
  std::vector<std::pair<std::string, double>> layer_metrics(
      const PassResult& pass);
  double layer_sum_s() const;

 private:
  void pump_all(size_t& moved);
  void sink_drain();
  void sample_parser_stats();
  ParserCounts parser_counts() const;

  loglens::ServiceOptions options_;
  loglens::Broker broker_;
  loglens::LogManager log_manager_;
  std::shared_ptr<loglens::ModelBroadcast> parser_broadcast_;
  std::shared_ptr<loglens::ModelBroadcast> detector_broadcast_;
  std::vector<loglens::ParserTask*> parser_tasks_;      // owned by parser_
  std::vector<loglens::DetectorTask*> detector_tasks_;  // owned by detector_
  Stage parser_;
  Stage detector_;
  loglens::HeartbeatController heartbeat_;
  loglens::ModelStore model_store_;
  std::unique_ptr<loglens::ModelController> model_controller_;
  std::unique_ptr<loglens::ModelManager> model_manager_;
  loglens::AnomalyStore anomaly_store_;
  loglens::Consumer sink_;
  std::vector<loglens::Agent> agents_;

  double ingest_s_ = 0;
  double pump_s_ = 0;
  uint64_t pumps_ = 0;
  double sink_s_ = 0;
  double heartbeat_s_ = 0;
  double pass_deploy_s_ = 0;
  double build_s_ = 0;
  double deploy_s_ = 0;

  struct ParserTally {
    const loglens::ParserStats* current = nullptr;
    ParserCounts last;  // `current`'s counts at the last sample
    ParserCounts done;  // counts of parsers since replaced
  };
  std::vector<ParserTally> parser_tally_;
};

}  // namespace perfbench
