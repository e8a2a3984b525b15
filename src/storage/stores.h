// The paper's Log Storage and Anomaly Storage components (Figure 1), both
// the one append-only table of storage/table.h: Log Storage is a log table
// (`LogStore`), and Anomaly Storage wraps an anomaly table whose rows are
// the anomalies' JSON. Model Storage keeps loaded models, not documents,
// and lives with them (service/model.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "json/json.h"
#include "storage/anomaly.h"
#include "storage/table.h"

namespace loglens {

// Anomalies awaiting human validation (Anomaly Storage): a table of kind
// kAnomalies keyed by type and timed by `timestamp_ms`, whose row is
// Anomaly::to_json().dump(). The row format stays behind this typed API.
class AnomalyStore {
 public:
  AnomalyStore();
  explicit AnomalyStore(DocumentStoreOptions options);

  void add(const Anomaly& anomaly);

  std::vector<Anomaly> all() const;
  std::vector<Anomaly> by_type(AnomalyType type) const;
  size_t count() const { return table_.size(); }
  size_t count_by_type(AnomalyType type) const;

  // Anomalies of `type` with a timestamp in [from_ms, to_ms], in store
  // order. The dashboard builds its "which sources spiked X" panel on this
  // and prints the plan's probe.
  std::vector<Anomaly> window(AnomalyType type, int64_t from_ms,
                              int64_t to_ms,
                              QueryStats* stats = nullptr) const;

  // The stored anomaly with id `id` (ids are dense from 0) as JSON: O(1)
  // on hot rows, a binary search over sealed segments.
  std::optional<Json> get(uint64_t id) const;

  Status flush() { return table_.flush(); }
  size_t segment_count() const { return table_.segment_count(); }
  size_t hot_count() const { return table_.hot_count(); }
  uint64_t rejected_segments() const { return table_.rejected_segments(); }

  // perfbench/ reads anomalies as docs().get(id); ROADMAP item 4 retires
  // that spelling with its copy of the pipeline.
  const AnomalyStore& docs() const { return *this; }

  // Keeps the first `n` anomalies: crash recovery cuts the store back to
  // the count its checkpoint recorded (LogLensService::recover).
  Status truncate(size_t n) { return table_.truncate(n); }

 private:
  Table table_;
};

}  // namespace loglens
