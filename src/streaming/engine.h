// Micro-batch streaming engine — the Spark Streaming substitute.
//
// The engine executes micro-batches over a fixed set of partitions. Each
// partition owns a long-lived PartitionTask (created once, never recreated),
// which is where keyed state lives — so, as in the paper's requirements,
// state survives for the lifetime of the job and "model updates" never
// restart anything. Per batch:
//
//   1. pending control operations (rebroadcasts, model instructions) are
//      applied under a serialized lock *between* micro-batches (Section V-A);
//   2. input messages are routed by the partitioner — except heartbeats
//      (MessageTag::kHeartbeat), which the custom partitioner duplicates to
//      *every* partition (Section V-B) so each partition can sweep its open
//      states;
//   3. partitions run fork-join: the calling thread and up to `workers - 1`
//      pool helpers claim partitions from a shared counter, and the batch
//      ends when every partition has finished; task outputs are collected
//      in partition order. The routing vectors, task contexts and outcomes
//      are engine members, cleared after each batch with their capacity
//      kept, so a steady stream of batches allocates no engine scratch.
//
// Synchronous `run_batch` keeps experiments deterministic; `JobRunner` (in
// job.h) adds the broker-driven background-loop deployment mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "broker/message.h"
#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "streaming/broadcast.h"
#include "streaming/thread_pool.h"

namespace loglens {

class TaskContext {
 public:
  TaskContext(size_t partition, uint64_t batch_number)
      : partition_(partition), batch_number_(batch_number) {}

  size_t partition() const { return partition_; }
  uint64_t batch_number() const { return batch_number_; }

  // Emits an output record for this batch.
  void emit(Message m) { outputs_.push_back(std::move(m)); }

  std::vector<Message>& outputs() { return outputs_; }

 private:
  friend class StreamEngine;  // reuses one context per partition

  void begin_batch(uint64_t batch_number) { batch_number_ = batch_number; }

  size_t partition_;
  uint64_t batch_number_;
  std::vector<Message> outputs_;
};

// One partition's processing logic. Implementations own their state (keyed
// maps, detectors, ...) and may keep it across batches.
class PartitionTask {
 public:
  virtual ~PartitionTask() = default;
  virtual void on_batch_start(TaskContext& /*ctx*/) {}
  virtual void process(const Message& message, TaskContext& ctx) = 0;
  virtual void on_batch_end(TaskContext& /*ctx*/) {}
};

using TaskFactory = std::function<std::unique_ptr<PartitionTask>(size_t)>;
using Partitioner = std::function<size_t(const Message&, size_t)>;

struct EngineOptions {
  size_t partitions = 4;
  // Partitions that run at once: the calling thread plus `workers - 1` pool
  // helpers (0 counts as 1). With 1, every partition runs serially on the
  // caller, in partition order.
  size_t workers = 2;
  // Default: hash of the message key (empty key -> partition 0).
  Partitioner partitioner;
  // Observability: which registry to report into (nullptr -> the global
  // one) and the `stage` label distinguishing this engine's metrics.
  MetricsRegistry* metrics = nullptr;
  std::string stage = "engine";
  // Fault tolerance. A partition task call (on_batch_start, per-message
  // process, on_batch_end) that throws is retried up to `task_max_attempts`
  // times in total, with capped exponential backoff (retry_base_ms doubling
  // up to retry_cap_ms). A message whose process() still throws after that
  // is poison: it is routed to BatchResult::dead_letters instead of killing
  // the job. An on_batch_start that never succeeds dead-letters the whole
  // partition batch; an on_batch_end that never succeeds fails the batch
  // (FaultError out of run_batch) because the task may hold half-synced
  // state — that is the supervisor's cue to restore from a checkpoint.
  size_t task_max_attempts = 4;
  int64_t retry_base_ms = 1;
  int64_t retry_cap_ms = 50;
  // Optional injector consulted at kFaultSiteTaskStart/Process/Finish.
  FaultInjector* faults = nullptr;
};

struct BatchResult {
  uint64_t batch_number = 0;
  size_t input_records = 0;
  size_t control_ops_applied = 0;
  std::vector<Message> outputs;  // concatenated in partition order
  double elapsed_ms = 0;         // wall time of the fork-join section
  // Fault tolerance (see EngineOptions): task attempts that were retried,
  // and the poison messages that exhausted their retry budget this batch.
  size_t task_retries = 0;
  std::vector<Message> dead_letters;
};

class StreamEngine {
 public:
  StreamEngine(EngineOptions options, const TaskFactory& factory);

  // Runs one micro-batch synchronously.
  BatchResult run_batch(std::vector<Message> input)
      LOGLENS_EXCLUDES(run_mu_, control_mu_);

  // Queues a control operation to run (serialized) before the next batch.
  // Safe to call from anywhere, including from inside another control op
  // (the engine drains the queue outside control_mu_).
  void enqueue_control(std::function<void()> op) LOGLENS_EXCLUDES(control_mu_);

  size_t partitions() const { return options_.partitions; }
  uint64_t batches_run() const {
    return batch_number_.load(std::memory_order_relaxed);
  }

  // Direct access for tests and the dashboard (e.g. open-state counters).
  PartitionTask& task(size_t partition) { return *tasks_[partition]; }

 private:
  // Per-partition outcome of one batch attempt, filled by run_partition on
  // whichever thread claimed the partition (each touches only its own slot).
  struct PartitionOutcome {
    uint64_t task_us = 0;
    uint64_t end_us = 0;  // when the task finished
    size_t retries = 0;
    std::vector<Message> dead_letters;
    bool fatal = false;   // on_batch_end failed after all retries
    bool on_helper = false;
  };

  // Executes one partition's share of a batch with the retry/dead-letter
  // policy of EngineOptions. Never throws (fatal failures are reported
  // through the outcome so they cross the thread-pool boundary safely).
  // `batch_ctx` is the batch's trace context (installed on the running
  // thread for the task's duration), `exec_span` the fork-join section's
  // span id, and `exec_start_us` the section's start, which pins a helper's
  // pool-wait span.
  void run_partition(size_t partition, bool on_helper,
                     const trace::TraceContext& batch_ctx, uint64_t exec_span,
                     uint64_t exec_start_us);
  // Drops what a batch left in the scratch below, keeping its capacity.
  void clear_scratch();

  EngineOptions options_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<PartitionTask>> tasks_;

  // Per-batch scratch, one slot per partition, reused across batches (only
  // touched under run_mu_, and by the partition's runner inside the batch).
  std::vector<std::vector<Message>> routed_;
  std::vector<TaskContext> contexts_;
  std::vector<PartitionOutcome> outcomes_;

  // Metric handles, resolved once at construction (see engine.cpp).
  MetricsRegistry* registry_ = nullptr;
  Counter* batches_total_ = nullptr;
  Counter* records_total_ = nullptr;
  Counter* outputs_total_ = nullptr;
  Counter* control_ops_total_ = nullptr;
  Counter* task_retries_total_ = nullptr;
  Counter* dead_letters_total_ = nullptr;
  Histogram* batch_duration_us_ = nullptr;
  Histogram* batch_skew_us_ = nullptr;
  Histogram* barrier_wait_us_ = nullptr;
  Histogram* route_us_ = nullptr;
  Histogram* pool_wait_us_ = nullptr;
  Counter* partitions_on_caller_ = nullptr;
  Counter* partitions_on_helper_ = nullptr;
  std::vector<Counter*> partition_records_;
  std::vector<Histogram*> partition_task_us_;

  // Guards only the pending queue. Queued ops run *outside* this lock (but
  // under run_mu_), so an op may re-enqueue follow-up work without
  // self-deadlocking; ops that rebroadcast then take the broadcast driver
  // lock, pinning kEngineControl < kBroadcastDriver.
  RankedMutex control_mu_{lock_rank::kEngineControl};
  std::vector<std::function<void()>> pending_controls_
      LOGLENS_GUARDED_BY(control_mu_);

  // Serializes run_batch callers; held across the pool run (the caller's own
  // partitions run under it), pinning kEngineRun < kThreadPool.
  RankedMutex run_mu_{lock_rank::kEngineRun};
  // Monotonic batch counter: written under run_mu_, read lock-free by
  // batches_run() (dashboard/monitoring threads), hence atomic.
  std::atomic<uint64_t> batch_number_{0};
};

}  // namespace loglens
