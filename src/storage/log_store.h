// Log Storage (Figure 1): the archive of every raw line the Log Manager
// takes off ingest, queried by source and log time for the model builder's
// relearning and for troubleshooting.
//
// An append-only table. A row is a fixed-size record — the source's
// interned code, `ts`, and the (offset, length) of its line — kept in
// fixed-size row blocks, and the lines follow one another through
// fixed-size text blocks. An append copies the line once, never moves older
// data and builds no document, so add() allocates nothing per line: one
// block per kRowsPerBlock rows or kTextBlockBytes of text.
//
// With `dir` set, every `hot_max_docs` rows seal into a log segment
// (storage/segment.h) through the write protocol DocumentStore uses: the
// rows are the lines verbatim, `source` is the one string column (with
// postings) and `ts` the one int column (with a zone map), so a line is
// stored once on disk too. A sealed log segment is already full, so the
// archive never compacts. With an empty `dir` the table lives in memory.
// Thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/document_store.h"
#include "storage/segment.h"

namespace loglens {

class LogStore {
 public:
  LogStore();  // in memory, default options
  // Reads `dir`, `hot_max_docs`, `name`, `metrics` and `faults`; the
  // compaction and query-plan switches do not apply to the archive.
  explicit LogStore(DocumentStoreOptions options);
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  // Appends one row. A seal that fails (injected fault, full disk) keeps
  // the rows hot and is retried at the next multiple of `hot_max_docs`.
  void add(std::string_view source, std::string_view raw, int64_t ts_ms)
      LOGLENS_EXCLUDES(write_mu_, mu_);

  // Raw lines from one source, optionally restricted to [from_ms, to_ms],
  // in archive order, at most `limit` of them.
  std::vector<std::string> fetch(std::string_view source,
                                 int64_t from_ms = INT64_MIN,
                                 int64_t to_ms = INT64_MAX,
                                 size_t limit = SIZE_MAX) const
      LOGLENS_EXCLUDES(mu_);

  size_t size() const LOGLENS_EXCLUDES(mu_);

  // Every non-empty source in the archive, sealed segments included.
  std::set<std::string> sources() const LOGLENS_EXCLUDES(mu_);

  // Seals the hot rows (no-op when there are none or `dir` is empty). On
  // failure they stay hot.
  Status flush() LOGLENS_EXCLUDES(write_mu_, mu_);

  size_t segment_count() const LOGLENS_EXCLUDES(mu_);
  size_t hot_count() const LOGLENS_EXCLUDES(mu_);
  // Segment files present at open but rejected (torn, corrupt, or not a
  // log segment). The files are left in place for forensics.
  uint64_t rejected_segments() const { return rejected_; }

  static constexpr size_t kRowsPerBlock = 4096;
  static constexpr size_t kTextBlockBytes = size_t{1} << 20;

 private:
  struct Row {
    int64_t ts;
    uint64_t offset;  // first byte of the line in the hot text
    uint32_t length;
    uint32_t source;  // interned code
  };

  // Transparent hashing, so a lookup by string_view builds no string.
  struct SourceHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  uint32_t intern(std::string_view source) LOGLENS_REQUIRES(mu_);
  const Row& row(size_t i) const LOGLENS_REQUIRES(mu_);
  std::string line(const Row& r) const LOGLENS_REQUIRES(mu_);
  Status seal() LOGLENS_REQUIRES(write_mu_) LOGLENS_EXCLUDES(mu_);
  void update_gauges() LOGLENS_REQUIRES(mu_);

  const DocumentStoreOptions options_;
  StoreMetrics metrics_;
  Gauge* hot_bytes_gauge_ = nullptr;  // row-block plus text-block bytes

  // Serializes writers, add() and flush(): a seal encodes every hot row
  // and nothing is appended while it does. Ranked with DocumentStore's
  // flush lock, below kFaults: the seal consults the FaultInjector (and
  // then takes mu_ to publish) while holding it.
  mutable RankedMutex write_mu_{lock_rank::kStorageFlush};

  // Guards the table against concurrent readers.
  mutable RankedMutex mu_{lock_rank::kStorage};

  // Sealed log segments, ascending contiguous id ranges.
  std::vector<std::shared_ptr<const Segment>> segments_
      LOGLENS_GUARDED_BY(mu_);

  // The hot rows: ids [hot_base_, hot_base_ + hot_rows_). Blocks are only
  // appended until a seal frees them all.
  uint64_t hot_base_ LOGLENS_GUARDED_BY(mu_) = 0;
  size_t hot_rows_ LOGLENS_GUARDED_BY(mu_) = 0;
  uint64_t text_size_ LOGLENS_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<Row[]>> row_blocks_ LOGLENS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<char[]>> text_blocks_ LOGLENS_GUARDED_BY(mu_);

  // Interned sources. Map nodes never move, so source_names_ (code ->
  // name) points at the map's keys.
  std::unordered_map<std::string, uint32_t, SourceHash, std::equal_to<>>
      source_codes_ LOGLENS_GUARDED_BY(mu_);
  std::vector<const std::string*> source_names_ LOGLENS_GUARDED_BY(mu_);
  // The previous add's code: consecutive lines mostly share a source.
  uint32_t last_source_ LOGLENS_GUARDED_BY(mu_) = 0;

  uint64_t rejected_ = 0;  // written only by the constructor
};

}  // namespace loglens
