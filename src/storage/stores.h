// Role-specific facades over DocumentStore: the paper's Log Storage, Model
// Storage, and Anomaly Storage components (Figure 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "storage/anomaly.h"
#include "storage/document_store.h"

namespace loglens {

// Archives raw logs by source (Log Storage). Stored logs feed the model
// builder's periodic relearning and post-facto troubleshooting queries.
class LogStore {
 public:
  LogStore() = default;
  // Tiered-engine configuration (segment dir, flush/compaction policy,
  // metrics label). Default: in-memory, the seed behaviour.
  explicit LogStore(DocumentStoreOptions options) : store_(std::move(options)) {}

  void add(std::string_view source, std::string_view raw, int64_t ts_ms);

  // Raw lines from one source, optionally restricted to [from_ms, to_ms].
  std::vector<std::string> fetch(std::string_view source,
                                 int64_t from_ms = INT64_MIN,
                                 int64_t to_ms = INT64_MAX,
                                 size_t limit = SIZE_MAX) const;
  size_t size() const { return store_.size(); }

 private:
  DocumentStore store_;
};

// Versioned named models (Model Storage). A model blob is an arbitrary JSON
// document (pattern model, sequence model, or a composite).
class ModelStore {
 public:
  struct Entry {
    std::string name;
    int version = 0;
    Json blob;
  };

  // Stores a new version of `name`; returns the version number (1-based).
  int put(std::string_view name, Json blob) LOGLENS_EXCLUDES(mu_);

  // Latest version, or nullopt if the model does not exist / was deleted.
  std::optional<Entry> latest(std::string_view name) const
      LOGLENS_EXCLUDES(mu_);
  std::optional<Entry> version(std::string_view name, int version) const
      LOGLENS_EXCLUDES(mu_);

  // Marks the model deleted (latest() stops returning it).
  void remove(std::string_view name) LOGLENS_EXCLUDES(mu_);

  std::vector<std::string> names() const LOGLENS_EXCLUDES(mu_);

 private:
  // Same storage tier as DocumentStore: written under the service's
  // recovery lock, never while holding anything ranked deeper.
  mutable RankedMutex mu_{lock_rank::kStorage};
  std::vector<Entry> entries_ LOGLENS_GUARDED_BY(mu_);
  std::vector<std::string> deleted_ LOGLENS_GUARDED_BY(mu_);
};

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

  // Drops everything — crash recovery rebuilds the store from the
  // checkpointed prefix of the anomalies topic (LogLensService::recover).
  void clear() { store_.clear(); }

 private:
  DocumentStore store_;
};

}  // namespace loglens
