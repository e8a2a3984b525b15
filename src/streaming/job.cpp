#include "streaming/job.h"

#include <chrono>

#include "common/clock.h"
#include "common/sched.h"
#include "trace/trace.h"

namespace loglens {

namespace {

// Output produces: attempts per message, and the pause between attempts.
constexpr size_t kProduceMaxAttempts = 5;
constexpr uint64_t kProduceRetryMs = 1;

}  // namespace

JobRunner::JobRunner(Broker& broker, StreamEngine& engine, JobOptions options)
    : broker_(broker),
      engine_(engine),
      options_(std::move(options)),
      consumer_(broker, options_.input_topic,
                &registry_or_global(options_.metrics)) {
  MetricsRegistry& registry = registry_or_global(options_.metrics);
  MetricLabels labels{{"job", options_.name}};
  batches_total_ = &registry.counter("loglens_job_batches_total", labels,
                                     "Micro-batches pulled from the broker");
  records_total_ = &registry.counter("loglens_job_records_total", labels,
                                     "Messages consumed from the input topic");
  reports_total_ = &registry.counter("loglens_job_metrics_reports_total",
                                     labels, "Health reports emitted");
  failures_total_ = &registry.counter(
      "loglens_job_failures_total", labels,
      "Fatal batches that parked this job pending recovery");
  dead_letters_total_ = &registry.counter(
      "loglens_job_dead_letter_records_total", labels,
      "Messages routed to (or dropped toward) the dead-letter topic");
  produce_retries_total_ = &registry.counter(
      "loglens_job_produce_retries_total", labels,
      "Output produce attempts that were retried at the job level");
  input_lag_ = &registry.gauge(
      "loglens_job_input_lag", labels,
      "Messages buffered on the input topic behind this job");
  queue_wait_us_ = &registry.histogram(
      "loglens_trace_queue_wait_us", labels,
      "Oldest message's wait on the input topic before its batch started");
  publish_us_ = &registry.histogram(
      "loglens_trace_publish_us", labels,
      "Time publishing a batch's outputs (and dead letters) to the broker");
  registry_ = &registry;
}

JobRunner::~JobRunner() { stop(); }

void JobRunner::start() {
  if (running_.exchange(true)) return;
  driver_ = sched::spawn_named("job-" + options_.name, [this] { loop(); });
}

void JobRunner::stop() {
  if (!running_.exchange(false)) return;
  if (driver_.joinable()) {
    // Real join; under a ScheduleController the driver still needs to be
    // scheduled to observe running_ == false, so step outside its view.
    sched::BlockingRegion joining;
    driver_.join();
  }
}

std::string JobRunner::last_error() const {
  RankedMutexLock lock(error_mu_);
  return last_error_;
}

void JobRunner::clear_failure() {
  {
    RankedMutexLock lock(error_mu_);
    last_error_.clear();
  }
  failed_.store(false);
}

void JobRunner::mark_failed(const char* what) {
  {
    RankedMutexLock lock(error_mu_);
    last_error_ = what;
  }
  failed_.store(true);
  failures_total_->inc();
}

Json JobRunner::metrics_report() const {
  JsonObject obj;
  obj.emplace_back("job", Json(options_.name));
  obj.emplace_back("batches", Json(static_cast<int64_t>(batches_.load())));
  obj.emplace_back("records_in",
                   Json(static_cast<int64_t>(records_in_.load())));
  obj.emplace_back("input_lag", Json(static_cast<int64_t>(consumer_.lag())));
  obj.emplace_back("engine_batches",
                   Json(static_cast<int64_t>(engine_.batches_run())));
  obj.emplace_back("failed", Json(failed_.load()));
  return Json(std::move(obj));
}

void JobRunner::produce_with_retry(const std::string& topic, Message message) {
  for (size_t attempt = 1; attempt <= kProduceMaxAttempts; ++attempt) {
    // The broker already absorbs transient faults with its own client-style
    // retry loop; a Status error here means that budget is spent too.
    if (broker_.produce(topic, message).ok()) return;
    if (attempt == kProduceMaxAttempts) break;
    produce_retries_total_->inc();
    sched::sleep_for_ms(kProduceRetryMs);
  }
  // Undeliverable output: dead-letter it rather than lose it silently. If
  // even the dead-letter produce fails, counting is all that is left.
  dead_letters_total_->inc();
  if (!options_.dead_letter_topic.empty()) {
    (void)broker_.produce(options_.dead_letter_topic, std::move(message));
  }
}

void JobRunner::process_batch(std::vector<Message> batch) {
  // Open this batch's pipeline span: its trace identity comes from the
  // first traced input message (so the producing stage's pipeline span is
  // this one's parent — parser.pipeline chains into detector.pipeline), and
  // the oldest enqueue timestamp pins the queue-wait component. The scope
  // installed below makes the engine's batch span a child and stamps every
  // published output with this span as parent.
  const uint64_t dequeue_us = trace_clock::now_us();
  const bool traced = trace::enabled();
  trace::TraceContext pipeline_ctx;
  uint64_t upstream_span = 0;
  uint64_t queue_start_us = dequeue_us;
  if (traced) {
    for (const Message& m : batch) {
      if (pipeline_ctx.trace_id == 0 && m.trace_id != 0) {
        pipeline_ctx.trace_id = m.trace_id;
        upstream_span = m.parent_span;
      }
      if (m.enqueue_us != 0 && m.enqueue_us < queue_start_us) {
        queue_start_us = m.enqueue_us;
      }
    }
    if (pipeline_ctx.trace_id == 0) {
      pipeline_ctx.trace_id = trace::new_trace_id();
    }
    pipeline_ctx.span_id = trace::new_span_id();
  }
  trace::ContextScope scope(pipeline_ctx);
  auto file_span = [&](const char* suffix, uint64_t span_id, uint64_t parent,
                       int64_t batch_number, uint64_t start_us,
                       uint64_t duration_us) {
    trace::Span span;
    span.trace_id = pipeline_ctx.trace_id;
    span.span_id = span_id;
    span.parent_id = parent;
    span.batch = batch_number;
    span.start_us = start_us;
    span.duration_us = duration_us;
    span.tid = trace::current_tid();
    span.name = options_.name + suffix;
    registry_->record_span(std::move(span));
  };

  LOGLENS_SCHED_POINT("job.process_batch");
  records_in_.fetch_add(batch.size());
  records_total_->inc(batch.size());
  queue_wait_us_->record(dequeue_us - queue_start_us);
  BatchResult result;
  try {
    result = engine_.run_batch(std::move(batch));
  } catch (...) {
    // Fatal batch: still record the pipeline span (the trace shows the
    // aborted batch) before the failure escalates to the supervisor.
    if (traced) {
      file_span(".pipeline", pipeline_ctx.span_id, upstream_span,
                static_cast<int64_t>(engine_.batches_run()), dequeue_us,
                trace_clock::now_us() - dequeue_us);
    }
    throw;
  }
  const auto batch_number = static_cast<int64_t>(result.batch_number);
  if (traced) {
    file_span(".queue_wait", trace::new_span_id(), pipeline_ctx.span_id,
              batch_number, queue_start_us, dequeue_us - queue_start_us);
  }
  uint64_t batches = batches_.fetch_add(1) + 1;
  batches_total_->inc();
  input_lag_->set(static_cast<int64_t>(consumer_.lag()));
  const uint64_t publish_start_us = trace_clock::now_us();
  if (!result.dead_letters.empty()) {
    dead_letters_total_->inc(result.dead_letters.size());
    if (!options_.dead_letter_topic.empty()) {
      (void)broker_.produce_batch(options_.dead_letter_topic,
                                  std::move(result.dead_letters));
    }
  }
  if (!options_.output_topic.empty() && !result.outputs.empty()) {
    // Batched publish: the whole batch crosses each output partition's lock
    // once. Messages whose broker-side retry budget is spent come back in
    // `undeliverable` and take the per-message retry/dead-letter slow path.
    std::vector<Message> undeliverable;
    (void)broker_.produce_batch(options_.output_topic,
                                std::move(result.outputs), &undeliverable);
    for (auto& m : undeliverable) {
      produce_retries_total_->inc();
      produce_with_retry(options_.output_topic, std::move(m));
    }
  }
  const uint64_t publish_end_us = trace_clock::now_us();
  publish_us_->record(publish_end_us - publish_start_us);
  if (traced) {
    file_span(".publish", trace::new_span_id(), pipeline_ctx.span_id,
              batch_number, publish_start_us,
              publish_end_us - publish_start_us);
    file_span(".pipeline", pipeline_ctx.span_id, upstream_span, batch_number,
              dequeue_us, publish_end_us - dequeue_us);
  }
  if (options_.metrics_report_every > 0 &&
      batches % options_.metrics_report_every == 0) {
    Message report;
    report.tag = MessageTag::kMetrics;
    report.source = options_.name;
    report.value = metrics_report().dump();
    broker_.produce("metrics", std::move(report));
    reports_total_->inc();
  }
}

void JobRunner::loop() {
  while (running_.load()) {
    LOGLENS_SCHED_POINT("job.loop");
    if (failed_.load()) {
      // Parked pending recovery: the supervisor stops this runner, repairs
      // state/offsets, clears the failure, and restarts it.
      sched::sleep_for_ms(static_cast<uint64_t>(options_.poll_timeout_ms));
      continue;
    }
    auto batch =
        consumer_.poll_blocking(options_.batch_size, options_.poll_timeout_ms);
    if (batch.empty()) continue;
    try {
      process_batch(std::move(batch));
    } catch (const std::exception& e) {
      // Fatal batch (on_batch_end retries exhausted). The polled messages
      // are past this consumer's offsets, which is why recovery rewinds to
      // the checkpointed offsets before restarting.
      mark_failed(e.what());
    }
  }
  if (failed_.load()) return;
  // Final drain so stop() never strands buffered input.
  for (auto batch = consumer_.poll(options_.batch_size); !batch.empty();
       batch = consumer_.poll(options_.batch_size)) {
    try {
      process_batch(std::move(batch));
    } catch (const std::exception& e) {
      mark_failed(e.what());
      return;
    }
  }
}

void JobRunner::drain() {
  if (failed_.load()) return;
  for (auto batch = consumer_.poll(options_.batch_size); !batch.empty();
       batch = consumer_.poll(options_.batch_size)) {
    try {
      process_batch(std::move(batch));
    } catch (const std::exception& e) {
      mark_failed(e.what());
      return;
    }
  }
}

}  // namespace loglens
