// The paper's Log Storage and Anomaly Storage components (Figure 1). Log
// Storage is its own append-only table over the shared segment format
// (storage/log_store.h); Anomaly Storage is a facade over DocumentStore.
// Model Storage keeps loaded models, not documents, and lives with them
// (service/model.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/anomaly.h"
#include "storage/document_store.h"
#include "storage/log_store.h"

namespace loglens {

// Anomalies awaiting human validation (Anomaly Storage).
class AnomalyStore {
 public:
  AnomalyStore() = default;
  explicit AnomalyStore(DocumentStoreOptions options)
      : store_(std::move(options)) {}

  void add(const Anomaly& anomaly);

  std::vector<Anomaly> all() const;
  std::vector<Anomaly> by_type(AnomalyType type) const;
  size_t count() const { return store_.size(); }
  size_t count_by_type(AnomalyType type) const;

  // Ad-hoc query surface over the raw anomaly documents (fields per
  // Anomaly::to_json: "type", "source", "timestamp_ms", ...). The dashboard
  // builds its "which sources spiked X" panel on this.
  std::vector<Json> query_docs(const Query& q,
                               QueryStats* stats = nullptr) const {
    return store_.query(q, stats);
  }

  Status flush() { return store_.flush(); }
  const DocumentStore& docs() const { return store_; }

  // Keeps the first `n` anomalies: crash recovery cuts the store back to
  // the count its checkpoint recorded (LogLensService::recover).
  Status truncate(size_t n) { return store_.truncate(n); }

 private:
  DocumentStore store_;
};

}  // namespace loglens
