// The storage table behind both of the paper's Elasticsearch roles (Figure
// 1): Log Storage archives every raw line the Log Manager takes off ingest,
// and Anomaly Storage keeps the anomalies awaiting review. Both are only
// ever stored, fetched by one key (a log's source, an anomaly's type) and
// filtered by time, so both are this one append-only table.
//
// A row is opaque bytes plus a key and a time. It is kept as a fixed-size
// record — the key's interned code, the time, and the (offset, length) of
// its bytes — in fixed-size row blocks, and the bytes follow one another
// through fixed-size text blocks. An append copies the bytes once, never
// moves older data and builds no document, so add() allocates nothing per
// row: one block per kRowsPerBlock rows or kTextBlockBytes of text.
//
// With `dir` set, every `hot_max_docs` rows seal into a segment
// (storage/segment.h): the rows verbatim, the key as the one string column
// (with postings) and the time as the one int column (with a zone map). The
// table's SegmentKind fixes the file magic and the two column names. With
// an empty `dir` the table lives in memory. Thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/segment.h"

namespace loglens {

class FaultInjector;
class MetricsRegistry;
class Counter;
class Gauge;

// The options a Table reads. The name is kept because perfbench/ spells it
// (ROADMAP item 4 retires that copy of the pipeline).
struct DocumentStoreOptions {
  // Segment directory. Empty = in memory only: flush() is a no-op and the
  // hot rows grow without bound.
  std::string dir;

  // The hot rows seal once there are this many (0 = only explicit flush()
  // seals).
  size_t hot_max_docs = 65536;

  // `store` label on this table's metrics series.
  std::string name = "docs";

  FaultInjector* faults = nullptr;    // consulted at seal and rewrite writes
  MetricsRegistry* metrics = nullptr; // nullptr = process-global registry
};

// Execution probe filled by fetch()/count(): how much work the plan did.
// The dashboard's source-spike panel prints it.
struct QueryStats {
  size_t segments_considered = 0;  // sealed segments examined by the plan
  size_t segments_pruned = 0;      // skipped via zone map / dictionary miss
  size_t docs_scanned = 0;         // rows evaluated against key and time
};

class Table {
 public:
  Table();  // a log table in memory, default options
  explicit Table(DocumentStoreOptions options,
                 SegmentKind kind = SegmentKind::kLogs);
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Appends one row and returns its id; ids are dense from 0 (resuming
  // after the last sealed segment when `dir` held segments). A seal that
  // fails (injected fault, full disk) keeps the rows hot and is retried at
  // the next multiple of `hot_max_docs`.
  uint64_t add(std::string_view key, std::string_view row, int64_t ts_ms)
      LOGLENS_EXCLUDES(write_mu_, mu_);

  // One row's bytes: a copy of the hot row, or of a sealed one found by
  // binary search over the segments.
  std::optional<std::string> get(uint64_t id) const LOGLENS_EXCLUDES(mu_);

  // Rows with `key`, optionally restricted to time [from_ms, to_ms], in id
  // order, at most `limit` of them. A sealed segment whose dictionary lacks
  // the key or whose zone map misses the range is skipped unread.
  std::vector<std::string> fetch(std::string_view key,
                                 int64_t from_ms = INT64_MIN,
                                 int64_t to_ms = INT64_MAX,
                                 size_t limit = SIZE_MAX,
                                 QueryStats* stats = nullptr) const
      LOGLENS_EXCLUDES(mu_);
  // Every row, in id order.
  std::vector<std::string> fetch_all() const LOGLENS_EXCLUDES(mu_);
  // The number of rows fetch() would return without `limit`, read from the
  // sealed postings without touching a row's bytes.
  size_t count(std::string_view key, int64_t from_ms = INT64_MIN,
               int64_t to_ms = INT64_MAX, QueryStats* stats = nullptr) const
      LOGLENS_EXCLUDES(mu_);

  size_t size() const LOGLENS_EXCLUDES(mu_);

  // Every non-empty key present, sealed segments included.
  std::set<std::string> keys() const LOGLENS_EXCLUDES(mu_);

  // Seals the hot rows (no-op when there are none or `dir` is empty). On
  // failure they stay hot.
  Status flush() LOGLENS_EXCLUDES(write_mu_, mu_);

  // Keeps the first `n` rows; the next add gets id `n`. Segments past the
  // cut are unlinked, highest first, then one straddling it is rewritten to
  // its prefix through <path>.merge.tmp and a rename. A crash or failure at
  // any step leaves a prefix of at least `n` rows, and a retry finishes the
  // cut.
  Status truncate(uint64_t n) LOGLENS_EXCLUDES(write_mu_, mu_);

  size_t segment_count() const LOGLENS_EXCLUDES(mu_);
  size_t hot_count() const LOGLENS_EXCLUDES(mu_);
  // Segment files present at open but rejected (torn, corrupt, of the other
  // kind, or overlapping an earlier one). The files are left in place for
  // forensics.
  uint64_t rejected_segments() const { return rejected_; }

  static constexpr size_t kRowsPerBlock = 4096;
  static constexpr size_t kTextBlockBytes = size_t{1} << 20;

 private:
  struct Row {
    int64_t ts;
    uint64_t offset;  // first byte of the row in the hot text
    uint32_t length;
    uint32_t key;  // interned code
  };

  // Transparent hashing, so a lookup by string_view builds no string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Counts the rows with `key` and a time in [from_ms, to_ms], in id
  // order, up to `limit`, and appends their bytes to `out` unless it is
  // nullptr.
  size_t scan(std::string_view key, int64_t from_ms, int64_t to_ms,
              size_t limit, QueryStats* stats,
              std::vector<std::string>* out) const LOGLENS_EXCLUDES(mu_);

  uint32_t intern(std::string_view key) LOGLENS_REQUIRES(mu_);
  const Row& row(size_t i) const LOGLENS_REQUIRES(mu_);
  std::string bytes(const Row& r) const LOGLENS_REQUIRES(mu_);
  Status seal() LOGLENS_REQUIRES(write_mu_) LOGLENS_EXCLUDES(mu_);
  // The first `n` rows of `seg` as a segment at its path, written through
  // <path>.merge.tmp and a rename.
  StatusOr<std::shared_ptr<const Segment>> rewrite_prefix(const Segment& seg,
                                                          uint32_t n)
      LOGLENS_REQUIRES(write_mu_) LOGLENS_EXCLUDES(mu_);
  void update_gauges() LOGLENS_REQUIRES(mu_);

  const DocumentStoreOptions options_;
  const SegmentKind kind_;
  const std::string_view key_column_;
  const std::string_view ts_column_;

  // The series every table exports under its `store` label
  // (docs/OBSERVABILITY.md), resolved once so hot paths touch only atomics.
  Counter* flushes_total_;
  Counter* pruned_total_;
  Gauge* segments_gauge_;
  Gauge* hot_docs_gauge_;
  Gauge* hot_bytes_gauge_;  // row-block plus text-block bytes

  // Serializes writers, add(), flush() and truncate(): a seal encodes every
  // hot row and nothing is appended while it does. Ranked below kFaults:
  // the seal consults the FaultInjector (and then takes mu_ to publish)
  // while holding it.
  mutable RankedMutex write_mu_{lock_rank::kStorageFlush};

  // Guards the table against concurrent readers.
  mutable RankedMutex mu_{lock_rank::kStorage};

  // Sealed segments, ascending contiguous id ranges.
  std::vector<std::shared_ptr<const Segment>> segments_
      LOGLENS_GUARDED_BY(mu_);

  // The hot rows: ids [hot_base_, hot_base_ + hot_rows_). Blocks are only
  // appended until a seal frees them all.
  uint64_t hot_base_ LOGLENS_GUARDED_BY(mu_) = 0;
  size_t hot_rows_ LOGLENS_GUARDED_BY(mu_) = 0;
  uint64_t text_size_ LOGLENS_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<Row[]>> row_blocks_ LOGLENS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<char[]>> text_blocks_ LOGLENS_GUARDED_BY(mu_);

  // Interned keys. Map nodes never move, so key_names_ (code -> name)
  // points at the map's keys; hot_counts_ (code -> hot rows) serves
  // count() and keys().
  std::unordered_map<std::string, uint32_t, KeyHash, std::equal_to<>>
      key_codes_ LOGLENS_GUARDED_BY(mu_);
  std::vector<const std::string*> key_names_ LOGLENS_GUARDED_BY(mu_);
  std::vector<size_t> hot_counts_ LOGLENS_GUARDED_BY(mu_);
  // The previous add's code: consecutive rows mostly share a key.
  uint32_t last_key_ LOGLENS_GUARDED_BY(mu_) = 0;

  uint64_t rejected_ = 0;  // written only by the constructor
};

// Log Storage: the archive of raw lines, keyed by source, timed by `ts`.
using LogStore = Table;

}  // namespace loglens
