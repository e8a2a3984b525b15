#include "storage/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define LOGLENS_SEGMENT_MMAP 1
#else
#define LOGLENS_SEGMENT_MMAP 0
#endif

#include "common/hash.h"
#include "faults/fault_injector.h"

namespace loglens {

namespace {

// File layout constants. The magic names the row kind and doubles as a
// format version: bump the trailing digit when the payload layout changes
// and old files are rejected (and rebuilt from JSONL) instead of misread.
constexpr char kDocumentMagic[8] = {'L', 'L', 'S', 'E', 'G', '1', '\n', '\0'};
constexpr char kLogMagic[8] = {'L', 'L', 'L', 'O', 'G', '1', '\n', '\0'};
constexpr size_t kMagicSize = 8;
constexpr uint64_t kHeaderSize = 8 + 8 + 8;  // magic + payload size + checksum

// Structural sanity bounds, enforced on open in addition to the checksum.
constexpr uint64_t kMaxDocs = 1ull << 28;
constexpr uint64_t kMaxFields = 1ull << 20;
constexpr uint64_t kMaxTerms = 1ull << 26;
constexpr uint64_t kMaxStrLen = 1ull << 24;

void put_u32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void put_u64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}
void put_i64(std::string& out, int64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}
void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

uint32_t load_u32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t load_u64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
int64_t load_i64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Bounds-checked forward reader over the payload. Every read that would
// run past the end flips `ok` and returns zeros; the parser checks `ok`
// after each section so a structurally-absurd (if checksum-colliding) file
// can never index out of the mapping.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  bool has(uint64_t n) {
    if (!ok || static_cast<uint64_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!has(4)) return 0;
    uint32_t v = load_u32(p);
    p += 4;
    return v;
  }
  uint64_t u64() {
    if (!has(8)) return 0;
    uint64_t v = load_u64(p);
    p += 8;
    return v;
  }
  int64_t i64() {
    if (!has(8)) return 0;
    int64_t v = load_i64(p);
    p += 8;
    return v;
  }
  std::string_view str(uint64_t max_len) {
    uint32_t n = u32();
    if (n > max_len || !has(n)) {
      ok = false;
      return {};
    }
    std::string_view s(p, n);
    p += n;
    return s;
  }
  const char* bytes(uint64_t n) {
    if (!has(n)) return nullptr;
    const char* s = p;
    p += n;
    return s;
  }
};

// First-occurrence walk over a document's object fields: calls fn(key,
// value) once per distinct key, for the value Json::find would return.
template <typename Fn>
void for_each_first_field(const Json& doc, Fn&& fn) {
  if (!doc.is_object()) return;
  const JsonObject& obj = doc.as_object();
  for (size_t i = 0; i < obj.size(); ++i) {
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) {
      if (obj[j].first == obj[i].first) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) fn(obj[i].first, obj[i].second);
  }
}

const char* magic_of(SegmentKind kind) {
  return kind == SegmentKind::kLogs ? kLogMagic : kDocumentMagic;
}

}  // namespace

std::string encode_segment(SegmentKind kind, uint64_t base_id,
                           const SegmentRows& rows,
                           const SegmentColumns& columns) {
  const uint32_t n = static_cast<uint32_t>(rows.offsets.size() - 1);
  const uint64_t blob_size = rows.offsets.back();

  // The payload is written in place after a header whose size and checksum
  // are patched in at the end, so the rows are copied exactly once.
  std::string file;
  file.reserve(kHeaderSize + 32 + 8ull * (n + 1) + blob_size +
               16ull * n * (columns.strings.size() + columns.ints.size()));
  file.append(magic_of(kind), kMagicSize);
  put_u64(file, 0);  // payload size, patched below
  put_u64(file, 0);  // checksum, patched below

  put_u64(file, base_id);
  put_u32(file, n);
  put_u32(file, 0);  // reserved
  put_u64(file, blob_size);
  for (uint64_t off : rows.offsets) put_u64(file, off);
  for (std::string_view piece : rows.blob) file.append(piece);

  put_u32(file, static_cast<uint32_t>(columns.strings.size()));
  for (const SegmentColumns::Strings& col : columns.strings) {
    put_str(file, col.name);
    put_u32(file, static_cast<uint32_t>(col.terms.size()));
    for (std::string_view t : col.terms) put_str(file, t);
    for (uint32_t c : col.codes) put_u32(file, c);
    // Posting lists by counting sort over the codes: ascending local ids.
    std::vector<uint32_t> starts(col.terms.size() + 1, 0);
    for (uint32_t c : col.codes) {
      if (c != 0) ++starts[c];
    }
    for (size_t t = 1; t < starts.size(); ++t) starts[t] += starts[t - 1];
    std::vector<uint32_t> ids(starts.back());
    std::vector<uint32_t> fill(starts.begin(), starts.end() - 1);
    for (uint32_t d = 0; d < n; ++d) {
      if (col.codes[d] != 0) ids[fill[col.codes[d] - 1]++] = d;
    }
    for (size_t t = 0; t < col.terms.size(); ++t) {
      put_u32(file, starts[t + 1] - starts[t]);
      for (uint32_t k = starts[t]; k < starts[t + 1]; ++k) put_u32(file, ids[k]);
    }
  }
  put_u32(file, static_cast<uint32_t>(columns.ints.size()));
  for (const SegmentColumns::Ints& col : columns.ints) {
    int64_t zmin = INT64_MAX;
    int64_t zmax = INT64_MIN;
    for (uint32_t d = 0; d < n; ++d) {
      if (col.presence[d] == 0) continue;
      zmin = std::min(zmin, col.values[d]);
      zmax = std::max(zmax, col.values[d]);
    }
    put_str(file, col.name);
    put_i64(file, zmin);
    put_i64(file, zmax);
    file.append(reinterpret_cast<const char*>(col.presence.data()),
                col.presence.size());
    for (int64_t v : col.values) put_i64(file, v);
  }

  const std::string_view payload =
      std::string_view(file).substr(kHeaderSize);
  const uint64_t payload_size = payload.size();
  const uint64_t checksum = fnv1a(payload);
  std::memcpy(file.data() + kMagicSize, &payload_size, 8);
  std::memcpy(file.data() + kMagicSize + 8, &checksum, 8);
  return file;
}

std::string encode_segment(uint64_t base_id, const std::vector<Json>& docs) {
  const uint32_t n = static_cast<uint32_t>(docs.size());

  // Row section: serialized docs + offsets.
  std::string blob;
  SegmentRows rows;
  rows.offsets.reserve(docs.size() + 1);
  for (const auto& d : docs) {
    rows.offsets.push_back(blob.size());
    d.dump_to(blob);
  }
  rows.offsets.push_back(blob.size());
  rows.blob.push_back(blob);

  // Columns, built by one first-occurrence pass per doc. Field and term ids
  // are assigned in first-appearance order (deterministic given the docs).
  // Names and terms view into `docs`, which outlive the encode.
  SegmentColumns columns;
  std::unordered_map<std::string_view, size_t> sidx;
  std::unordered_map<std::string_view, size_t> iidx;
  std::vector<std::unordered_map<std::string_view, uint32_t>> term_ids;
  for (uint32_t d = 0; d < n; ++d) {
    for_each_first_field(docs[d], [&](const std::string& key, const Json& v) {
      if (v.is_string()) {
        auto [it, fresh] = sidx.try_emplace(key, columns.strings.size());
        if (fresh) {
          columns.strings.emplace_back();
          columns.strings.back().name = key;
          columns.strings.back().codes.assign(n, 0);
          term_ids.emplace_back();
        }
        SegmentColumns::Strings& col = columns.strings[it->second];
        auto [tit, term_fresh] = term_ids[it->second].try_emplace(
            v.as_string(), static_cast<uint32_t>(col.terms.size()));
        if (term_fresh) col.terms.push_back(v.as_string());
        col.codes[d] = tit->second + 1;
      } else if (v.is_number()) {
        auto [it, fresh] = iidx.try_emplace(key, columns.ints.size());
        if (fresh) {
          columns.ints.emplace_back();
          columns.ints.back().name = key;
          columns.ints.back().presence.assign(n, 0);
          columns.ints.back().values.assign(n, 0);
        }
        SegmentColumns::Ints& col = columns.ints[it->second];
        col.presence[d] = 1;
        col.values[d] = v.as_int();
      }
    });
  }
  return encode_segment(SegmentKind::kDocuments, base_id, rows, columns);
}

StatusOr<std::shared_ptr<const Segment>> Segment::open(std::string path,
                                                       SegmentKind kind) {
  auto seg = std::shared_ptr<Segment>(new Segment());
  seg->path_ = std::move(path);

#if LOGLENS_SEGMENT_MMAP
  int fd = ::open(seg->path_.c_str(), O_RDONLY);
  if (fd < 0) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot open segment: " + seg->path_);
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot stat segment: " + seg->path_);
  }
  seg->data_size_ = static_cast<uint64_t>(st.st_size);
  if (seg->data_size_ > 0) {
    void* map = ::mmap(nullptr, seg->data_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      return StatusOr<std::shared_ptr<const Segment>>::Error(
          "cannot mmap segment: " + seg->path_);
    }
    seg->data_ = static_cast<const char*>(map);
    seg->mapped_ = true;
  } else {
    ::close(fd);
  }
#else
  std::ifstream in(seg->path_, std::ios::binary);
  if (!in) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot open segment: " + seg->path_);
  }
  seg->heap_copy_.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  seg->data_ = seg->heap_copy_.data();
  seg->data_size_ = seg->heap_copy_.size();
#endif

  // Header validation: magic, recorded payload size vs actual file length,
  // payload checksum. A torn write or corrupt byte anywhere fails here.
  if (seg->data_size_ < kHeaderSize ||
      std::memcmp(seg->data_, magic_of(kind), kMagicSize) != 0) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "not a segment file (bad magic): " + seg->path_);
  }
  const uint64_t payload_size = load_u64(seg->data_ + 8);
  const uint64_t checksum = load_u64(seg->data_ + 16);
  if (seg->data_size_ != kHeaderSize + payload_size) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "segment truncated or oversized: " + seg->path_);
  }
  const char* payload = seg->data_ + kHeaderSize;
  if (fnv1a(std::string_view(payload, payload_size)) != checksum) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "segment checksum mismatch: " + seg->path_);
  }
  Status s = seg->parse_payload(payload, payload_size);
  if (!s.ok()) return s;
  return std::shared_ptr<const Segment>(std::move(seg));
}

Status Segment::parse_payload(const char* payload, uint64_t size) {
  Cursor c{payload, payload + size};
  base_id_ = c.u64();
  doc_count_ = c.u32();
  (void)c.u32();  // reserved
  blob_size_ = c.u64();
  if (!c.ok || doc_count_ > kMaxDocs) {
    return Status::Error("segment header malformed: " + path_);
  }
  doc_offsets_ = c.bytes(8ull * (doc_count_ + 1));
  blob_ = c.bytes(blob_size_);
  if (!c.ok || load_u64(doc_offsets_ + 8ull * doc_count_) != blob_size_) {
    return Status::Error("segment row section malformed: " + path_);
  }

  const uint32_t n_strings = c.u32();
  if (!c.ok || n_strings > kMaxFields) {
    return Status::Error("segment column section malformed: " + path_);
  }
  string_fields_.reserve(n_strings);
  for (uint32_t f = 0; f < n_strings; ++f) {
    StringField field;
    field.name = c.str(kMaxStrLen);
    const uint32_t n_terms = c.u32();
    if (!c.ok || n_terms > kMaxTerms) {
      return Status::Error("segment column section malformed: " + path_);
    }
    field.terms.reserve(n_terms);
    for (uint32_t t = 0; t < n_terms; ++t) {
      field.terms.push_back(c.str(kMaxStrLen));
    }
    field.codes = c.bytes(4ull * doc_count_);
    field.postings.reserve(n_terms);
    for (uint32_t t = 0; t < n_terms; ++t) {
      const uint32_t len = c.u32();
      if (len > doc_count_) {
        return Status::Error("segment posting list malformed: " + path_);
      }
      field.postings.emplace_back(c.bytes(4ull * len), len);
    }
    if (!c.ok) {
      return Status::Error("segment column section malformed: " + path_);
    }
    for (uint32_t t = 0; t < n_terms; ++t) field.term_ids[field.terms[t]] = t;
    string_fields_.push_back(std::move(field));
  }

  const uint32_t n_ints = c.u32();
  if (!c.ok || n_ints > kMaxFields) {
    return Status::Error("segment column section malformed: " + path_);
  }
  int_fields_.reserve(n_ints);
  for (uint32_t f = 0; f < n_ints; ++f) {
    IntField field;
    field.name = c.str(kMaxStrLen);
    field.zone_min = c.i64();
    field.zone_max = c.i64();
    field.presence = c.bytes(doc_count_);
    field.values = c.bytes(8ull * doc_count_);
    if (!c.ok) {
      return Status::Error("segment column section malformed: " + path_);
    }
    int_fields_.push_back(std::move(field));
  }
  if (c.p != c.end) {
    return Status::Error("segment has trailing bytes: " + path_);
  }

  for (size_t i = 0; i < string_fields_.size(); ++i) {
    string_by_name_.emplace(string_fields_[i].name, i);
  }
  for (size_t i = 0; i < int_fields_.size(); ++i) {
    int_by_name_.emplace(int_fields_[i].name, i);
  }
  return Status::Ok();
}

Segment::~Segment() {
#if LOGLENS_SEGMENT_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), data_size_);
  }
#endif
}

std::string_view Segment::doc_bytes(uint32_t local_id) const {
  const uint64_t lo = load_u64(doc_offsets_ + 8ull * local_id);
  const uint64_t hi = load_u64(doc_offsets_ + 8ull * (local_id + 1));
  return std::string_view(blob_ + lo, hi - lo);
}

const Segment::StringField* Segment::string_field(
    std::string_view name) const {
  auto it = string_by_name_.find(name);
  return it == string_by_name_.end() ? nullptr : &string_fields_[it->second];
}

const Segment::IntField* Segment::int_field(std::string_view name) const {
  auto it = int_by_name_.find(name);
  return it == int_by_name_.end() ? nullptr : &int_fields_[it->second];
}

uint32_t Segment::code_at(const StringField& f, uint32_t local_id) {
  return load_u32(f.codes + 4ull * local_id);
}

uint32_t Segment::posting_at(const StringField& f, uint32_t term_id,
                             uint32_t index) {
  return load_u32(f.postings[term_id].first + 4ull * index);
}

bool Segment::int_present(const IntField& f, uint32_t local_id) {
  return f.presence[local_id] != 0;
}

int64_t Segment::int_value(const IntField& f, uint32_t local_id) {
  return load_i64(f.values + 8ull * local_id);
}

std::string segment_file_path(const std::string& dir, uint64_t base_id) {
  // Decimal zero-padding keeps lexicographic directory order == id order.
  char name[40];
  std::snprintf(name, sizeof(name), "seg-%016llu.llseg",
                static_cast<unsigned long long>(base_id));
  return dir + "/" + name;
}

Status write_segment_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out ? Status::Ok() : Status::Error("segment write failed: " + path);
}

StatusOr<std::shared_ptr<const Segment>> publish_segment(
    const std::string& path, std::string_view bytes, SegmentKind kind,
    FaultInjector* faults) {
  if (faults != nullptr) {
    const FaultAction fault = faults->check(kFaultSiteSegmentFlush);
    if (fault == FaultAction::kThrow) {
      return Status::Error("segment flush failed (injected)");
    }
    if (fault == FaultAction::kTornWrite) {
      (void)write_segment_file(path, bytes.substr(0, bytes.size() / 2));
      return Status::Error("segment flush torn (injected)");
    }
  }
  const std::string tmp = path + ".tmp";
  if (Status s = write_segment_file(tmp, bytes); !s.ok()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot publish segment: " + path);
  }
  return Segment::open(path, kind);
}

std::vector<std::shared_ptr<const Segment>> open_segment_dir(
    const std::string& dir, SegmentKind kind, uint64_t* rejected) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::vector<std::shared_ptr<const Segment>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string p = entry.path().string();
    if (p.size() < 6 || p.compare(p.size() - 6, 6, ".llseg") != 0) continue;
    auto seg = Segment::open(p, kind);
    if (!seg.ok()) {
      // Torn, corrupt or foreign: skip it (the file stays for forensics; a
      // re-flush of the same base renames a fresh segment over it).
      ++*rejected;
      continue;
    }
    found.push_back(std::move(seg.value()));
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a->base_id() < b->base_id();
  });
  std::vector<std::shared_ptr<const Segment>> out;
  for (auto& seg : found) {
    if (!out.empty() && seg->end_id() <= out.back()->end_id()) {
      // Stale compaction input: a crash hit between publishing the merged
      // segment (which subsumes this range) and unlinking its inputs.
      std::remove(seg->path().c_str());
      continue;
    }
    if (!out.empty() && seg->base_id() < out.back()->end_id()) {
      // Partial overlap is never produced by this engine; refuse it.
      ++*rejected;
      continue;
    }
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace loglens
