#include "service/log_manager.h"

#include "common/clock.h"
#include "trace/trace.h"

namespace loglens {

LogManager::LogManager(Broker& broker, LogManagerOptions options)
    : broker_(broker),
      options_(std::move(options)),
      consumer_(broker, options_.input_topic),
      store_(options_.store),
      registry_(&registry_or_global(options_.store.metrics)),
      dead_letters_total_(&registry_->counter(
          "loglens_log_manager_dead_letter_records_total",
          {{"topic", options_.input_topic}},
          "Raw logs whose forward exhausted its produce retries")) {}

size_t LogManager::pump() {
  // The span names outgrow the short-string buffer, so an untraced pump
  // reads no clock and builds no span.
  const bool traced = trace::enabled();
  const uint64_t start_us = traced ? trace_clock::now_us() : 0;
  auto batch = consumer_.poll(options_.max_forward_per_pump);
  const size_t n = batch.size();
  if (n == 0) return 0;
  const uint64_t archive_us = traced ? trace_clock::now_us() : 0;
  for (const auto& m : batch) store_.add(m.source, m.value, m.timestamp_ms);
  const uint64_t forward_us = traced ? trace_clock::now_us() : 0;
  const uint64_t trace_id = batch.front().trace_id;
  // Forward as one batch: one partition-lock crossing per pump, not per
  // log line.
  std::vector<Message> failed;
  (void)broker_.produce_batch(options_.output_topic, std::move(batch), &failed);
  forwarded_ += n - failed.size();
  if (!failed.empty()) {
    dead_letters_total_->inc(failed.size());
    if (!options_.dead_letter_topic.empty()) {
      (void)broker_.produce_batch(options_.dead_letter_topic,
                                  std::move(failed));
    }
  }
  if (traced) {
    const uint64_t end_us = trace_clock::now_us();
    trace::Span span;
    span.trace_id = trace_id != 0 ? trace_id : trace::new_trace_id();
    span.tid = trace::current_tid();
    const uint64_t pipeline_id = trace::new_span_id();
    auto file = [&](const char* name, uint64_t id, uint64_t parent,
                    uint64_t from_us, uint64_t to_us) {
      span.name = name;
      span.span_id = id;
      span.parent_id = parent;
      span.start_us = from_us;
      span.duration_us = to_us - from_us;
      registry_->record_span(span);
    };
    file("log_manager.pipeline", pipeline_id, 0, start_us, end_us);
    file("log_manager.poll", trace::new_span_id(), pipeline_id, start_us,
         archive_us);
    file("log_manager.archive", trace::new_span_id(), pipeline_id, archive_us,
         forward_us);
    file("log_manager.forward", trace::new_span_id(), pipeline_id, forward_us,
         end_us);
  }
  return n;
}

size_t LogManager::drain() {
  size_t total = 0;
  for (size_t n = pump(); n > 0; n = pump()) total += n;
  return total;
}

}  // namespace loglens
