#include "streaming/engine.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/hash.h"
#include "common/sched.h"
#include "metrics/timer.h"
#include "trace/trace.h"

namespace loglens {

StreamEngine::StreamEngine(EngineOptions options, const TaskFactory& factory)
    : options_(std::move(options)),
      pool_(options_.workers > 1 ? options_.workers - 1 : 0) {
  if (options_.partitions == 0) options_.partitions = 1;
  if (!options_.partitioner) {
    options_.partitioner = [](const Message& m, size_t n) {
      return m.key.empty() ? 0 : static_cast<size_t>(fnv1a(m.key) % n);
    };
  }
  tasks_.reserve(options_.partitions);
  contexts_.reserve(options_.partitions);
  for (size_t p = 0; p < options_.partitions; ++p) {
    tasks_.push_back(factory(p));
    contexts_.emplace_back(p, 0);
  }
  routed_.resize(options_.partitions);
  outcomes_.resize(options_.partitions);

  // Resolve metric handles once; run_batch only touches atomics.
  registry_ = &registry_or_global(options_.metrics);
  MetricLabels stage{{"stage", options_.stage}};
  batches_total_ = &registry_->counter("loglens_engine_batches_total", stage,
                                       "Micro-batches executed");
  records_total_ = &registry_->counter("loglens_engine_records_total", stage,
                                       "Input messages routed to partitions");
  outputs_total_ = &registry_->counter("loglens_engine_outputs_total", stage,
                                       "Messages emitted by partition tasks");
  control_ops_total_ =
      &registry_->counter("loglens_engine_control_ops_total", stage,
                          "Control ops (rebroadcasts etc.) applied");
  task_retries_total_ =
      &registry_->counter("loglens_engine_task_retries_total", stage,
                          "Partition task attempts that were retried");
  dead_letters_total_ = &registry_->counter(
      "loglens_engine_dead_letter_records_total", stage,
      "Messages routed to the dead-letter channel (poison)");
  batch_duration_us_ =
      &registry_->histogram("loglens_engine_batch_duration_us", stage,
                            "Wall time of the fork-join section per batch");
  batch_skew_us_ = &registry_->histogram(
      "loglens_engine_batch_skew_us", stage,
      "Per-batch max-min partition task time (load skew)");
  barrier_wait_us_ = &registry_->histogram(
      "loglens_engine_barrier_wait_us", stage,
      "Time from a partition's task finishing to the end of its batch's "
      "fork-join section");
  route_us_ = &registry_->histogram(
      "loglens_trace_route_us", stage,
      "Time spent routing a batch's messages to partitions");
  pool_wait_us_ = &registry_->histogram(
      "loglens_trace_pool_wait_us", stage,
      "Delay from a batch's fork-join start to a pool helper claiming a "
      "partition");
  MetricLabels on_caller{{"runner", "caller"}, {"stage", options_.stage}};
  MetricLabels on_helper{{"runner", "helper"}, {"stage", options_.stage}};
  const char* runs_help =
      "Partition tasks run, by the thread that claimed them";
  partitions_on_caller_ = &registry_->counter(
      "loglens_engine_partitions_run_total", on_caller, runs_help);
  partitions_on_helper_ = &registry_->counter(
      "loglens_engine_partitions_run_total", on_helper, runs_help);
  partition_records_.reserve(options_.partitions);
  partition_task_us_.reserve(options_.partitions);
  for (size_t p = 0; p < options_.partitions; ++p) {
    MetricLabels labels{{"partition", std::to_string(p)},
                        {"stage", options_.stage}};
    partition_records_.push_back(
        &registry_->counter("loglens_engine_partition_records_total", labels,
                            "Messages processed per partition"));
    partition_task_us_.push_back(
        &registry_->histogram("loglens_engine_partition_task_us", labels,
                              "Per-partition task time per batch"));
  }
}

void StreamEngine::enqueue_control(std::function<void()> op) {
  RankedMutexLock lock(control_mu_);
  pending_controls_.push_back(std::move(op));
}

void StreamEngine::run_partition(size_t p, bool on_helper,
                                 const trace::TraceContext& batch_ctx,
                                 uint64_t exec_span, uint64_t exec_start_us) {
  std::vector<Message>& input = routed_[p];
  TaskContext& ctx = contexts_[p];
  PartitionOutcome& outcome = outcomes_[p];
  outcome.on_helper = on_helper;
  const uint64_t task_start = trace_clock::now_us();
  const bool traced = trace::enabled() && batch_ctx.trace_id != 0;
  if (on_helper) pool_wait_us_->record(task_start - exec_start_us);
  if (traced && on_helper) {
    trace::Span wait;
    wait.trace_id = batch_ctx.trace_id;
    wait.span_id = trace::new_span_id();
    wait.parent_id = exec_span;
    wait.batch = batch_ctx.batch;
    wait.start_us = exec_start_us;
    wait.duration_us = task_start - exec_start_us;
    wait.tid = trace::current_tid();
    wait.name = options_.stage + ".pool_wait";
    registry_->record_span(std::move(wait));
  }
  trace::TraceContext task_ctx = batch_ctx;
  if (traced) task_ctx.span_id = trace::new_span_id();  // the .task span
  // Spans the task itself records (and messages it produces) parent to the
  // per-partition task span via the thread-local context.
  trace::ContextScope scope(task_ctx);
  // Retries `fn` (optionally preceded by an injected fault at `site`) with
  // capped exponential backoff; false when the attempt budget is spent.
  auto guarded = [&](const char* site, auto&& fn) {
    for (size_t attempt = 1;; ++attempt) {
      try {
        if (options_.faults != nullptr) options_.faults->hit(site);
        fn();
        return true;
      } catch (const std::exception&) {
        if (attempt >= options_.task_max_attempts) return false;
        ++outcome.retries;
        int64_t ms = std::min(options_.retry_cap_ms,
                              options_.retry_base_ms
                                  << std::min<size_t>(attempt - 1, 20));
        if (ms > 0) sched::sleep_for_ms(static_cast<uint64_t>(ms));
      }
    }
  };

  if (!guarded(kFaultSiteTaskStart,
               [&] { tasks_[p]->on_batch_start(ctx); })) {
    // The task cannot even open the batch: dead-letter the whole partition
    // batch rather than stall the stage. (The vector keeps its size; the
    // metrics loop after the section only reads sizes.)
    for (auto& m : input) outcome.dead_letters.push_back(std::move(m));
  } else {
    for (Message& m : input) {
      // A message that keeps throwing is poison: route it to the dead
      // letters and move on. Note the at-least-once caveat — a *real* throw
      // from inside process() may leave a partial state mutation behind;
      // the detector task's dedup guard and idempotent parser make the
      // retry safe (docs/FAULTS.md).
      if (!guarded(kFaultSiteTaskProcess,
                   [&] { tasks_[p]->process(m, ctx); })) {
        outcome.dead_letters.push_back(std::move(m));
      }
    }
    if (!guarded(kFaultSiteTaskFinish,
                 [&] { tasks_[p]->on_batch_end(ctx); })) {
      // The task may now hold half-synced state; escalate to the job level
      // (fatal batch) so the supervisor can restore from a checkpoint.
      outcome.fatal = true;
    }
  }
  outcome.end_us = trace_clock::now_us();
  outcome.task_us = outcome.end_us - task_start;
  if (traced) {
    trace::Span task;
    task.trace_id = task_ctx.trace_id;
    task.span_id = task_ctx.span_id;
    task.parent_id = exec_span;
    task.batch = task_ctx.batch;
    task.start_us = task_start;
    task.duration_us = outcome.task_us;
    task.tid = trace::current_tid();
    task.name = options_.stage + ".task";
    registry_->record_span(std::move(task));
  }
}

void StreamEngine::clear_scratch() {
  for (size_t p = 0; p < options_.partitions; ++p) {
    routed_[p].clear();
    contexts_[p].outputs().clear();
    outcomes_[p] = PartitionOutcome{};
  }
}

BatchResult StreamEngine::run_batch(std::vector<Message> input) {
  LOGLENS_SCHED_POINT("engine.run_batch");
  RankedMutexLock run_lock(run_mu_);
  BatchResult result;
  result.batch_number =
      batch_number_.fetch_add(1, std::memory_order_relaxed) + 1;
  result.input_records = input.size();

  // Trace identity for this batch: the `<stage>.batch` span (whole call)
  // parents to the caller's context — the job's pipeline span when the
  // engine runs deployed — and the phase spans below parent to the batch.
  const uint64_t batch_start_us = trace_clock::now_us();
  const bool traced = trace::enabled();
  const uint64_t caller_span = trace::current().span_id;
  trace::TraceContext batch_ctx;
  if (traced) {
    const trace::TraceContext& caller = trace::current();
    batch_ctx.trace_id =
        caller.trace_id != 0 ? caller.trace_id : trace::new_trace_id();
    batch_ctx.span_id = trace::new_span_id();
    batch_ctx.batch = static_cast<int64_t>(result.batch_number);
  }
  auto file_span = [&](const char* phase, uint64_t span_id, uint64_t parent,
                       uint64_t start_us, uint64_t duration_us) {
    trace::Span span;
    span.trace_id = batch_ctx.trace_id;
    span.span_id = span_id;
    span.parent_id = parent;
    span.batch = batch_ctx.batch;
    span.start_us = start_us;
    span.duration_us = duration_us;
    span.tid = trace::current_tid();
    span.name = options_.stage + phase;
    registry_->record_span(std::move(span));
  };

  // Control operations land between micro-batches, serialized by run_mu_.
  // The queue is swapped out and drained *outside* control_mu_: an op that
  // calls back into enqueue_control (a model instruction scheduling a
  // follow-up rebroadcast) must not deadlock on the queue lock. Ops that
  // land during the drain simply wait for the next batch.
  {
    const uint64_t control_start = trace_clock::now_us();
    std::vector<std::function<void()>> ops;
    {
      RankedMutexLock lock(control_mu_);
      ops.swap(pending_controls_);
    }
    LOGLENS_SCHED_POINT("engine.control_drain");
    for (auto& op : ops) {
      op();
      ++result.control_ops_applied;
    }
    if (traced) {
      file_span(".control", trace::new_span_id(), batch_ctx.span_id,
                control_start, trace_clock::now_us() - control_start);
    }
  }

  // Route. Heartbeats are duplicated to every partition (custom
  // partitioner); everything else follows the configured partitioner. The
  // routed messages live in routed_ until the batch ends, however it ends.
  struct ScratchGuard {
    StreamEngine* engine;
    ~ScratchGuard() { engine->clear_scratch(); }
  } scratch_guard{this};
  const uint64_t route_start = trace_clock::now_us();
  const size_t n = options_.partitions;
  for (auto& m : input) {
    if (m.tag == MessageTag::kHeartbeat) {
      for (size_t p = 0; p < n; ++p) routed_[p].push_back(m);
    } else {
      size_t p = options_.partitioner(m, n) % n;
      routed_[p].push_back(std::move(m));
    }
  }
  const uint64_t route_end = trace_clock::now_us();
  route_us_->record(route_end - route_start);
  if (traced) {
    file_span(".route", trace::new_span_id(), batch_ctx.span_id, route_start,
              route_end - route_start);
  }

  // Fork-join section: this thread and the pool helpers it wakes claim the
  // partitions; each runner writes only its partition's slots. Histograms
  // are fed after every partition has finished.
  for (size_t p = 0; p < n; ++p) {
    contexts_[p].begin_batch(result.batch_number);
  }
  const uint64_t exec_span = traced ? trace::new_span_id() : 0;
  const uint64_t span_start = trace_clock::now_us();
  pool_.run(n, [&](size_t p, ThreadPool::Runner runner) {
    run_partition(p, runner == ThreadPool::Runner::kHelper, batch_ctx,
                  exec_span, span_start);
  });
  const uint64_t exec_end = trace_clock::now_us();
  const uint64_t elapsed_us = exec_end - span_start;
  result.elapsed_ms = static_cast<double>(elapsed_us) / 1000.0;
  if (traced) {
    file_span(".exec", exec_span, batch_ctx.span_id, span_start, elapsed_us);
  }
  batches_total_->inc();
  records_total_->inc(result.input_records);
  control_ops_total_->inc(result.control_ops_applied);
  batch_duration_us_->record(elapsed_us);
  uint64_t min_task = UINT64_MAX, max_task = 0;
  size_t on_helper = 0;
  bool fatal = false;
  for (size_t p = 0; p < n; ++p) {
    PartitionOutcome& outcome = outcomes_[p];
    partition_records_[p]->inc(routed_[p].size());
    partition_task_us_[p]->record(outcome.task_us);
    barrier_wait_us_->record(exec_end - outcome.end_us);
    min_task = std::min(min_task, outcome.task_us);
    max_task = std::max(max_task, outcome.task_us);
    if (outcome.on_helper) ++on_helper;
    result.task_retries += outcome.retries;
    fatal = fatal || outcome.fatal;
    for (auto& m : outcome.dead_letters) {
      result.dead_letters.push_back(std::move(m));
    }
  }
  partitions_on_caller_->inc(n - on_helper);
  partitions_on_helper_->inc(on_helper);
  batch_skew_us_->record(max_task - min_task);
  task_retries_total_->inc(result.task_retries);
  dead_letters_total_->inc(result.dead_letters.size());
  if (fatal) {
    // Record the batch span before escalating so the trace shows the failed
    // batch (its missing .collect phase marks it as aborted).
    if (traced) {
      file_span(".batch", batch_ctx.span_id, caller_span, batch_start_us,
                trace_clock::now_us() - batch_start_us);
    }
    throw FaultError("stage '" + options_.stage +
                     "' failed a batch: partition task did not finish after " +
                     std::to_string(options_.task_max_attempts) + " attempts");
  }

  const uint64_t collect_start = trace_clock::now_us();
  size_t total_outputs = 0;
  for (auto& ctx : contexts_) total_outputs += ctx.outputs().size();
  outputs_total_->inc(total_outputs);
  result.outputs.reserve(total_outputs);
  for (auto& ctx : contexts_) {
    auto& outs = ctx.outputs();
    result.outputs.insert(result.outputs.end(),
                          std::make_move_iterator(outs.begin()),
                          std::make_move_iterator(outs.end()));
  }
  if (traced) {
    const uint64_t now_us = trace_clock::now_us();
    file_span(".collect", trace::new_span_id(), batch_ctx.span_id,
              collect_start, now_us - collect_start);
    file_span(".batch", batch_ctx.span_id, caller_span, batch_start_us,
              now_us - batch_start_us);
  }
  return result;
}

}  // namespace loglens
