// Immutable on-disk columnar segments, the sealed form of both tiered
// stores: DocumentStore's JSON documents and LogStore's raw lines.
//
// A segment is a contiguous id range [base_id, base_id + doc_count) of rows,
// serialized once and then only ever read through an mmap. The layout is
// column-first so queries touch the few bytes they need:
//
//   header   magic, payload size, fnv1a-64 checksum of the payload
//   rows     per-row bytes addressed by an offset table: a document's
//            byte-exact dump() (materialization and save_jsonl read these
//            verbatim), or a log line exactly as archived
//   strings  per string column: a dictionary of distinct terms, a per-row
//            code column (0 = the row has no string value here), and a
//            posting list of local ids per term
//   ints     per integer column: a zone map (min/max over the segment) plus
//            a per-row presence byte and value column
//
// The magic names the row kind, so a store opens only its own kind of file
// and rejects the other instead of misreading it. In a document segment the
// columns index the *first* occurrence of each key — the value Json::find
// returns — so evaluating a term or range clause against the columns is
// exactly equivalent to evaluating it against the document. A log segment
// has exactly two columns: `source` (string) and `ts` (int); the line
// itself is the row and is stored once.
//
// Torn-write safety: open() accepts a file only when the magic matches, the
// file length equals header + recorded payload size, and the payload
// checksum verifies. A crash (or injected torn write) anywhere mid-file
// fails at least one of those checks, so a damaged segment is rejected at
// open time without affecting its neighbours. See DESIGN.md §6.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "json/json.h"

namespace loglens {

class FaultInjector;

// What a segment's rows are, recorded in its magic.
enum class SegmentKind {
  kDocuments,  // serialized JSON documents (DocumentStore)
  kLogs,       // raw log lines (LogStore)
};

// The rows of a segment being written: row i is bytes [offsets[i],
// offsets[i + 1]) of the concatenation of the `blob` pieces.
struct SegmentRows {
  std::vector<uint64_t> offsets;      // row count + 1, from 0, ascending
  std::vector<std::string_view> blob;
};

// The columns of a segment being written, stored in this order. Postings
// and zone maps are derived from the per-row codes and values.
struct SegmentColumns {
  struct Strings {
    std::string_view name;
    std::vector<std::string_view> terms;  // term id -> text
    std::vector<uint32_t> codes;          // per row; 0 = absent, else id + 1
  };
  struct Ints {
    std::string_view name;
    std::vector<uint8_t> presence;  // per row; 1 = the row has a value
    std::vector<int64_t> values;    // per row
  };
  std::vector<Strings> strings;
  std::vector<Ints> ints;
};

// Serializes one sealed segment (header + payload) into a byte buffer. The
// caller owns durability (publish_segment) and fault injection at the write.
std::string encode_segment(SegmentKind kind, uint64_t base_id,
                           const SegmentRows& rows,
                           const SegmentColumns& columns);

// The document form: each row is a doc's dump(), and every key whose first
// value is a string (respectively a number) gets a string (int) column.
std::string encode_segment(uint64_t base_id, const std::vector<Json>& docs);

class Segment {
 public:
  struct StringField {
    std::string_view name;
    std::vector<std::string_view> terms;  // term_id -> text
    std::unordered_map<std::string_view, uint32_t> term_ids;
    const char* codes = nullptr;  // u32[doc_count]; 0 = absent, else id + 1
    // term_id -> (first id byte, id count); ids are u32 locals, ascending.
    std::vector<std::pair<const char*, uint32_t>> postings;
  };

  struct IntField {
    std::string_view name;
    int64_t zone_min = 0;  // zone map over present values
    int64_t zone_max = 0;
    const char* presence = nullptr;  // u8[doc_count]; 1 = doc has a number
    const char* values = nullptr;    // i64[doc_count]
  };

  // Validates and maps the file. Any truncation or corruption — from the
  // magic through the last payload byte — or a file of another kind returns
  // an error and leaves no mapping behind.
  static StatusOr<std::shared_ptr<const Segment>> open(
      std::string path, SegmentKind kind = SegmentKind::kDocuments);

  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint64_t base_id() const { return base_id_; }
  uint32_t doc_count() const { return doc_count_; }
  uint64_t end_id() const { return base_id_ + doc_count_; }
  const std::string& path() const { return path_; }

  // One row's bytes: the dump() of the Json that was inserted, or the log
  // line that was archived.
  std::string_view doc_bytes(uint32_t local_id) const;

  // nullptr when no document in this segment has a string (respectively
  // numeric) first value for the field.
  const StringField* string_field(std::string_view name) const;
  const IntField* int_field(std::string_view name) const;

  // Column accessors (bounds are the caller's responsibility).
  static uint32_t code_at(const StringField& f, uint32_t local_id);
  static uint32_t posting_at(const StringField& f, uint32_t term_id,
                             uint32_t index);
  static bool int_present(const IntField& f, uint32_t local_id);
  static int64_t int_value(const IntField& f, uint32_t local_id);

 private:
  Segment() = default;
  Status parse_payload(const char* payload, uint64_t size);

  std::string path_;
  // The mapping (mmap when available, a heap copy otherwise).
  const char* data_ = nullptr;
  uint64_t data_size_ = 0;
  bool mapped_ = false;
  std::string heap_copy_;

  uint64_t base_id_ = 0;
  uint32_t doc_count_ = 0;
  const char* doc_offsets_ = nullptr;  // u64[doc_count + 1]
  const char* blob_ = nullptr;
  uint64_t blob_size_ = 0;
  std::vector<StringField> string_fields_;
  std::vector<IntField> int_fields_;
  std::unordered_map<std::string_view, size_t> string_by_name_;
  std::unordered_map<std::string_view, size_t> int_by_name_;
};

// The write and open protocol both stores share. Segment files live in one
// directory per store, named by base id so directory order is id order.
std::string segment_file_path(const std::string& dir, uint64_t base_id);

// Writes `bytes` to `path`, replacing any file there.
Status write_segment_file(const std::string& path, std::string_view bytes);

// Seals `bytes` as the segment at `path`: written to <path>.tmp, renamed
// over `path`, then opened (and so validated) as `kind`. The storage flush
// fault site fires first: kThrow fails with nothing written; kTornWrite
// leaves the first half of the file at `path` — power loss after a rename
// became durable but before the data did — which open-time validation
// rejects. On any failure the caller still holds its rows and retries the
// same base, whose rename replaces a torn file.
StatusOr<std::shared_ptr<const Segment>> publish_segment(
    const std::string& path, std::string_view bytes, SegmentKind kind,
    FaultInjector* faults);

// The segments of `dir` (created when missing), ascending by base id and
// never overlapping. A file that does not open as `kind` (torn, corrupt, or
// of the other kind) or that partly overlaps an earlier one is skipped,
// left on disk for forensics and counted in `*rejected`. A segment that an
// earlier one wholly covers is a compaction input whose unlink a crash
// interrupted; it is unlinked now.
std::vector<std::shared_ptr<const Segment>> open_segment_dir(
    const std::string& dir, SegmentKind kind, uint64_t* rejected);

}  // namespace loglens
