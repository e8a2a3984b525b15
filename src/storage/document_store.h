// Tiered, JSONL-compatible document store — the Elasticsearch substitute.
//
// The paper uses Elasticsearch for three roles: archiving raw logs by
// source, storing learned models, and storing anomalies for human review,
// all queried by simple term/time predicates. This store covers exactly
// that, but no longer caps retention at RAM: documents land in a mutable
// in-memory *hot segment* which seals and flushes to immutable, mmap'd
// columnar segment files (storage/segment.h) once it reaches
// `hot_max_docs`. Sealed segments carry per-field string dictionaries with
// posting lists and integer columns with zone maps, so term/range queries
// prune whole segments before touching a byte of document data, and small
// adjacent segments are merged by compaction (inline after each flush, or
// an explicit compact()). Ids are dense and stable: segment k covers
// [base_id, base_id + doc_count) and neither flush, compaction nor
// truncation renumbers a document.
//
// With an empty `dir` the store is purely in-memory (the hot segment never
// seals) and behaves exactly like the seed-era vector store. Thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "storage/segment.h"

namespace loglens {

class FaultInjector;
class MetricsRegistry;
class Counter;
class Gauge;

struct QueryClause {
  enum class Kind { kTerm, kRange };
  Kind kind = Kind::kTerm;
  std::string field;
  std::string term;        // kTerm: exact string equality
  int64_t min = INT64_MIN; // kRange: inclusive bounds on an integer field
  int64_t max = INT64_MAX;

  static QueryClause Term(std::string field, std::string value) {
    QueryClause c;
    c.kind = Kind::kTerm;
    c.field = std::move(field);
    c.term = std::move(value);
    return c;
  }
  static QueryClause Range(std::string field, int64_t min, int64_t max) {
    QueryClause c;
    c.kind = Kind::kRange;
    c.field = std::move(field);
    c.min = min;
    c.max = max;
    return c;
  }
};

struct Query {
  std::vector<QueryClause> clauses;  // conjunctive
  size_t limit = SIZE_MAX;
};

// Execution probe filled by query()/count(): how much work the plan did.
// Tests pin the sealed segments' smallest-posting-list selection, their
// zone-map pruning, and the hot segment's full scan with it; the dashboard
// does not expose it.
struct QueryStats {
  size_t segments_considered = 0;  // sealed segments examined by the plan
  size_t segments_pruned = 0;      // skipped via zone map / dictionary miss
  size_t docs_scanned = 0;         // docs evaluated against the clauses
};

struct DocumentStoreOptions {
  // Segment directory. Empty = in-memory only: flush()/compact() are no-ops
  // and the hot segment grows without bound, exactly the seed behaviour.
  std::string dir;

  // Hot segment seals once it holds this many documents (0 = only explicit
  // flush() seals).
  size_t hot_max_docs = 65536;

  // Compaction policy: after a flush (and on an explicit compact()), merge
  // the earliest run of >= compact_min_segments adjacent segments whose
  // combined size stays <= compact_max_docs.
  bool auto_compact = true;
  size_t compact_min_segments = 4;
  size_t compact_max_docs = 262144;

  // Plan switches, for benchmarks and the differential harness:
  // zone_map_pruning=false keeps posting lists but never skips a segment;
  // sequential_scan=true ignores columns entirely and re-parses every
  // document (the full-scan baseline bench_storage compares against).
  bool zone_map_pruning = true;
  bool sequential_scan = false;

  // `store` label on this store's metrics series.
  std::string name = "docs";

  FaultInjector* faults = nullptr;    // consulted at flush/compact writes
  MetricsRegistry* metrics = nullptr; // nullptr = process-global registry
};

// The series every tiered store exports under its `store` label
// (docs/OBSERVABILITY.md), resolved once at construction so hot paths touch
// only atomics.
struct StoreMetrics {
  StoreMetrics(MetricsRegistry* metrics, const std::string& store);

  Counter* flushes_total;
  Counter* compactions_total;
  Counter* pruned_total;
  Counter* rejected_total;
  Gauge* segments;
  Gauge* hot_docs;
};

class DocumentStore {
 public:
  DocumentStore();  // in-memory only, default options
  explicit DocumentStore(DocumentStoreOptions options);
  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  // Inserts a document and returns its id. Ids are assigned densely from 0
  // (resuming after the last sealed segment when `dir` held segments).
  uint64_t insert(Json doc) LOGLENS_EXCLUDES(mu_);

  std::optional<Json> get(uint64_t id) const LOGLENS_EXCLUDES(mu_);

  // Returns copies of documents satisfying every clause, in insertion
  // order. The optional probe reports how much the plan scanned.
  std::vector<Json> query(const Query& q) const LOGLENS_EXCLUDES(mu_);
  std::vector<Json> query(const Query& q, QueryStats* stats) const
      LOGLENS_EXCLUDES(mu_);
  // count() never materializes documents: sealed segments are counted from
  // their columns alone.
  size_t count(const Query& q, QueryStats* stats = nullptr) const
      LOGLENS_EXCLUDES(mu_);

  size_t size() const LOGLENS_EXCLUDES(mu_);

  // Keeps the first `n` documents; the next insert gets id `n`. Segments
  // past the cut are unlinked, highest first, then one straddling it is
  // rewritten to its prefix. A crash or failure at any step leaves a
  // prefix of at least `n` documents. Call with no concurrent insert.
  Status truncate(uint64_t n) LOGLENS_EXCLUDES(flush_mu_, mu_);

  // One JSON object per line, in id order (sealed rows are streamed
  // verbatim). load_jsonl inserts line by line (taking the lock per
  // document), so a concurrent reader sees a growing store, never a torn
  // one; a line that is not a JSON object stops the load with an error
  // identifying the line (documents inserted before it remain).
  Status save_jsonl(const std::string& path) const LOGLENS_EXCLUDES(mu_);
  Status load_jsonl(const std::string& path) LOGLENS_EXCLUDES(mu_);

  // Seals the current hot segment to disk (no-op when empty or in-memory).
  // On failure — injected or real — the hot segment is left intact and the
  // next flush retries the same documents.
  Status flush() LOGLENS_EXCLUDES(flush_mu_, mu_);

  // One compaction round: merges the earliest eligible run of adjacent
  // segments (see DocumentStoreOptions). No-op when nothing is eligible.
  Status compact() LOGLENS_EXCLUDES(flush_mu_, mu_);

  size_t segment_count() const LOGLENS_EXCLUDES(mu_);
  size_t hot_count() const LOGLENS_EXCLUDES(mu_);
  // Segment files present at open but rejected (bad magic / size /
  // checksum). The files are left in place for forensics.
  uint64_t rejected_segments() const { return rejected_; }

  const DocumentStoreOptions& options() const { return options_; }

 private:
  void open_dir();
  // Shared plan executor: fills `out` (query) or only counts (count).
  size_t execute(const Query& q, QueryStats* stats,
                 std::vector<Json>* out) const LOGLENS_EXCLUDES(mu_);
  Status flush_internal(bool force) LOGLENS_EXCLUDES(flush_mu_, mu_);
  // Both assume the caller holds flush_mu_ (flush/compact serialization);
  // they take mu_ themselves only for the short publish step.
  Status flush_locked(bool force) LOGLENS_REQUIRES(flush_mu_)
      LOGLENS_EXCLUDES(mu_);
  Status compact_locked() LOGLENS_REQUIRES(flush_mu_) LOGLENS_EXCLUDES(mu_);
  // Compaction's write path, shared with truncate(): the rows of `inputs`
  // below `end_id` replace the first input via <path>.merge.tmp + rename.
  StatusOr<std::shared_ptr<const Segment>> rewrite_segment(
      const std::vector<std::shared_ptr<const Segment>>& inputs,
      uint64_t end_id) LOGLENS_REQUIRES(flush_mu_) LOGLENS_EXCLUDES(mu_);
  void update_gauges(size_t segments, size_t hot_docs);

  const DocumentStoreOptions options_;
  StoreMetrics metrics_;

  // Serializes flush and compaction (one segment-file writer at a time).
  // Ranked *below* kFaults: the writer consults the FaultInjector while
  // holding it, and below kStorage so the publish step can take mu_.
  mutable RankedMutex flush_mu_{lock_rank::kStorageFlush};

  // Recovery truncates stores while holding the service lock, so storage
  // ranks inside it.
  mutable RankedMutex mu_{lock_rank::kStorage};

  // Sealed segments, ascending contiguous id ranges. The shared_ptrs are
  // snapshotted under mu_; the segments themselves are immutable.
  std::vector<std::shared_ptr<const Segment>> segments_
      LOGLENS_GUARDED_BY(mu_);

  // The hot segment: ids [hot_base_, hot_base_ + hot_docs_.size()).
  // Queries scan it with matches(), the predicate the differential harness
  // holds every plan to.
  uint64_t hot_base_ LOGLENS_GUARDED_BY(mu_) = 0;
  std::vector<Json> hot_docs_ LOGLENS_GUARDED_BY(mu_);

  uint64_t rejected_ = 0;  // written only by open_dir(), before publication
};

}  // namespace loglens
