// Log Manager (Figure 1): receives logs from agents, controls the incoming
// rate, identifies log sources, archives raw logs to the log store, and
// forwards them to the parser's input topic. The archive is LogStore's
// append-only table (storage/log_store.h), which also interns the sources.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "broker/broker.h"
#include "metrics/metrics.h"
#include "storage/stores.h"

namespace loglens {

struct LogManagerOptions {
  std::string input_topic = "ingest";
  std::string output_topic = "logs";
  // Rate control: at most this many logs are forwarded per pump() call;
  // excess stays buffered in the broker until the next pump.
  size_t max_forward_per_pump = 65536;
  // Logs whose forward exhausts the broker's produce retries land here
  // (empty: they are dropped). Either way they are counted in
  // loglens_log_manager_dead_letter_records_total.
  std::string dead_letter_topic;
  // The archive's segment dir, seal threshold (`hot_max_docs`), metrics
  // label, registry and fault injector; LogStore ignores the compaction and
  // query-plan fields. Default: in memory. The `metrics` registry also
  // receives the dead-letter counter and the pump's trace spans.
  DocumentStoreOptions store;
};

class LogManager {
 public:
  LogManager(Broker& broker, LogManagerOptions options = {});

  // Archives up to the rate limit of buffered logs and forwards them from
  // ingest to the parser topic. Returns the number taken off ingest: each
  // is either forwarded or dead-lettered, never silently dropped. With
  // tracing on, a pump that moves logs records a `log_manager.pipeline`
  // span with `log_manager.poll`, `.archive` and `.forward` children.
  size_t pump();

  // Drains the ingest topic completely (repeated pumps).
  size_t drain();

  // Logs still buffered on the ingest topic. Under fault injection an empty
  // poll inside drain() can be an injected fetch failure, so callers chasing
  // a fixed point must gate on this rather than on drain() returning 0.
  uint64_t input_lag() const { return consumer_.lag(); }

  // Every non-empty source archived so far.
  std::set<std::string> sources() const { return store_.sources(); }
  LogStore& log_store() { return store_; }
  uint64_t forwarded() const { return forwarded_; }

 private:
  Broker& broker_;
  LogManagerOptions options_;
  Consumer consumer_;
  LogStore store_;
  uint64_t forwarded_ = 0;
  MetricsRegistry* registry_;
  Counter* dead_letters_total_ = nullptr;
};

}  // namespace loglens
