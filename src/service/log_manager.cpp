#include "service/log_manager.h"

namespace loglens {

LogManager::LogManager(Broker& broker, LogManagerOptions options)
    : broker_(broker),
      options_(std::move(options)),
      consumer_(broker, options_.input_topic),
      store_(options_.store),
      dead_letters_total_(&registry_or_global(options_.store.metrics).counter(
          "loglens_log_manager_dead_letter_records_total",
          {{"topic", options_.input_topic}},
          "Raw logs whose forward exhausted its produce retries")) {}

size_t LogManager::pump() {
  auto batch = consumer_.poll(options_.max_forward_per_pump);
  for (auto& m : batch) {
    if (!m.source.empty()) sources_.insert(m.source);
    store_.add(m.source, m.value, m.timestamp_ms);
  }
  const size_t n = batch.size();
  if (n == 0) return 0;
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
  return n;
}

size_t LogManager::drain() {
  size_t total = 0;
  for (size_t n = pump(); n > 0; n = pump()) total += n;
  return total;
}

}  // namespace loglens
