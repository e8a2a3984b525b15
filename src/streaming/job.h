// Broker-driven streaming job: the deployment loop that turns the
// synchronous StreamEngine into a long-running service.
//
// A JobRunner owns a consumer on the input topic, which is one ordered log
// read from a single offset; its driver thread polls a micro-batch (parking
// on the broker until input arrives), hands it to the engine, whose
// partitions are where the parallelism lives, and publishes the outputs to
// the output topic. `stop()` finishes the in-flight batch and drains what is
// already buffered — the zero-downtime property comes from never needing to
// call stop() for a model update (those ride enqueue_control instead).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "broker/broker.h"
#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "metrics/metrics.h"
#include "streaming/engine.h"

namespace loglens {

struct JobOptions {
  std::string input_topic;
  std::string output_topic;  // empty: outputs are dropped
  size_t batch_size = 1024;
  int64_t poll_timeout_ms = 20;
  // Observability. `name` labels this job's metrics; when
  // `metrics_report_every` > 0, a MessageTag::kMetrics message with a JSON
  // health report is produced to the "metrics" topic every N batches.
  std::string name = "job";
  size_t metrics_report_every = 0;
  MetricsRegistry* metrics = nullptr;  // nullptr -> the global registry
  // Fault tolerance. Poison messages the engine gives up on, and outputs
  // whose produce exhausts its retries, land on `dead_letter_topic` (empty:
  // they are dropped after being counted). Output produces are themselves
  // retried a few times, 1 ms apart (job.cpp).
  std::string dead_letter_topic = "";
};

class JobRunner {
 public:
  JobRunner(Broker& broker, StreamEngine& engine, JobOptions options);
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  void start();
  void stop();

  // Synchronously processes everything currently in the input topic.
  // Usable whether or not the background thread is running (it competes for
  // the same consumer only when stopped; call on a stopped runner in tests).
  void drain();

  uint64_t batches() const { return batches_.load(); }
  uint64_t records_in() const { return records_in_.load(); }

  // Messages buffered on the input topic behind this job. Under fault
  // injection an empty poll is not proof of emptiness (fetch faults read as
  // empty), so drain loops gate on this instead.
  uint64_t input_lag() const { return consumer_.lag(); }

  // Failure state. A batch the engine declares fatal (FaultError out of
  // run_batch) marks the job failed: the driver thread parks, drain()
  // returns early, and a supervisor (LogLensService::recover) is expected
  // to restore state and call clear_failure() before resuming.
  bool failed() const { return failed_.load(); }
  std::string last_error() const LOGLENS_EXCLUDES(error_mu_);
  void clear_failure() LOGLENS_EXCLUDES(error_mu_);

  // Offset checkpointing passthrough (call only while the job is stopped):
  // what the service records in a checkpoint, and how recovery rewinds the
  // job to it for at-least-once redelivery (refused below the input topic's
  // low-water mark, see Consumer::seek).
  uint64_t consumer_offset() const { return consumer_.offset(); }
  Status seek(uint64_t offset) { return consumer_.seek(offset); }

  // The JSON health report emitted every `metrics_report_every` batches
  // (also handy for tests and ad-hoc inspection).
  Json metrics_report() const;

 private:
  void loop();
  void process_batch(std::vector<Message> batch);
  void produce_with_retry(const std::string& topic, Message message);
  void mark_failed(const char* what) LOGLENS_EXCLUDES(error_mu_);

  Broker& broker_;
  StreamEngine& engine_;
  JobOptions options_;
  Consumer consumer_;
  std::thread driver_;
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> records_in_{0};
  // Near-leaf: held only around the error-string copy, never across calls
  // into other subsystems (metrics counters fire outside it).
  mutable RankedMutex error_mu_{lock_rank::kJobState};
  std::string last_error_ LOGLENS_GUARDED_BY(error_mu_);

  MetricsRegistry* registry_ = nullptr;
  Counter* batches_total_ = nullptr;
  Counter* records_total_ = nullptr;
  Counter* reports_total_ = nullptr;
  Counter* failures_total_ = nullptr;
  Counter* dead_letters_total_ = nullptr;
  Counter* produce_retries_total_ = nullptr;
  Gauge* input_lag_ = nullptr;
  Histogram* queue_wait_us_ = nullptr;
  Histogram* publish_us_ = nullptr;
};

}  // namespace loglens
