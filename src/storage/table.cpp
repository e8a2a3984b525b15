#include "storage/table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {

namespace {

std::string_view key_column_of(SegmentKind kind) {
  return kind == SegmentKind::kLogs ? "source" : "type";
}

std::string_view ts_column_of(SegmentKind kind) {
  return kind == SegmentKind::kLogs ? "ts" : "timestamp_ms";
}

size_t blocks_for(uint64_t n, size_t per_block) {
  return static_cast<size_t>((n + per_block - 1) / per_block);
}

}  // namespace

Table::Table() : Table(DocumentStoreOptions{}) {}

Table::Table(DocumentStoreOptions options, SegmentKind kind)
    : options_(std::move(options)),
      kind_(kind),
      key_column_(key_column_of(kind)),
      ts_column_(ts_column_of(kind)) {
  MetricsRegistry& m = registry_or_global(options_.metrics);
  const MetricLabels labels{{"store", options_.name}};
  flushes_total_ = &m.counter("loglens_storage_flushes_total", labels,
                              "Seals of the hot rows completed");
  pruned_total_ =
      &m.counter("loglens_storage_segments_pruned_total", labels,
                 "Sealed segments skipped by zone map or dictionary miss");
  Counter& rejected_total =
      m.counter("loglens_storage_segments_rejected_total", labels,
                "Segment files rejected at open (torn or corrupt)");
  segments_gauge_ = &m.gauge("loglens_storage_segments", labels,
                             "Sealed segments currently open");
  hot_docs_gauge_ = &m.gauge("loglens_storage_hot_docs", labels,
                             "Rows in the mutable hot tier");
  hot_bytes_gauge_ = &m.gauge("loglens_storage_hot_bytes", labels,
                              "Bytes allocated for the hot rows");
  RankedMutexLock lock(mu_);
  if (!options_.dir.empty()) {
    segments_ = open_segment_dir(options_.dir, kind_, &rejected_);
    rejected_total.inc(rejected_);
    if (!segments_.empty()) hot_base_ = segments_.back()->end_id();
  }
  update_gauges();
}

uint32_t Table::intern(std::string_view key) {
  if (last_key_ < key_names_.size() && *key_names_[last_key_] == key) {
    return last_key_;
  }
  auto it = key_codes_.find(key);
  if (it == key_codes_.end()) {
    it = key_codes_
             .emplace(std::string(key),
                      static_cast<uint32_t>(key_names_.size()))
             .first;
    key_names_.push_back(&it->first);
    hot_counts_.push_back(0);
  }
  last_key_ = it->second;
  return it->second;
}

const Table::Row& Table::row(size_t i) const {
  return row_blocks_[i / kRowsPerBlock][i % kRowsPerBlock];
}

std::string Table::bytes(const Row& r) const {
  std::string out;
  out.reserve(r.length);
  uint64_t at = r.offset;
  for (size_t left = r.length; left > 0;) {
    const size_t within = at % kTextBlockBytes;
    const size_t n = std::min(left, kTextBlockBytes - within);
    out.append(text_blocks_[at / kTextBlockBytes].get() + within, n);
    at += n;
    left -= n;
  }
  return out;
}

void Table::update_gauges() {
  segments_gauge_->set(static_cast<int64_t>(segments_.size()));
  hot_docs_gauge_->set(static_cast<int64_t>(hot_rows_));
  hot_bytes_gauge_->set(static_cast<int64_t>(
      row_blocks_.size() * kRowsPerBlock * sizeof(Row) +
      text_blocks_.size() * kTextBlockBytes));
}

uint64_t Table::add(std::string_view key, std::string_view raw,
                    int64_t ts_ms) {
  RankedMutexLock wlock(write_mu_);
  uint64_t id;
  bool seal_now;
  {
    RankedMutexLock lock(mu_);
    if (hot_rows_ == row_blocks_.size() * kRowsPerBlock) {
      // Default-initialized: a block's pages are touched only as rows land.
      row_blocks_.emplace_back(new Row[kRowsPerBlock]);
    }
    const uint64_t offset = text_size_;
    for (size_t done = 0; done < raw.size();) {
      if (text_size_ == text_blocks_.size() * kTextBlockBytes) {
        text_blocks_.emplace_back(new char[kTextBlockBytes]);
      }
      const size_t within = text_size_ % kTextBlockBytes;
      const size_t n = std::min(raw.size() - done, kTextBlockBytes - within);
      std::memcpy(text_blocks_.back().get() + within, raw.data() + done, n);
      done += n;
      text_size_ += n;
    }
    const uint32_t code = intern(key);
    row_blocks_.back()[hot_rows_ % kRowsPerBlock] =
        Row{ts_ms, offset, static_cast<uint32_t>(raw.size()), code};
    ++hot_counts_[code];
    id = hot_base_ + hot_rows_;
    ++hot_rows_;
    update_gauges();
    seal_now = !options_.dir.empty() && options_.hot_max_docs > 0 &&
               hot_rows_ % options_.hot_max_docs == 0;
  }
  if (seal_now) (void)seal();
  return id;
}

Status Table::flush() {
  if (options_.dir.empty()) return Status::Ok();
  RankedMutexLock wlock(write_mu_);
  return seal();
}

Status Table::seal() {
  // write_mu_ holds every other writer off, so the rows and text captured
  // here stay put while they are encoded without mu_; readers only read.
  uint64_t base;
  size_t n;
  uint64_t text;
  std::vector<const Row*> rows_in;
  std::vector<const char*> text_in;
  std::vector<std::string_view> names;
  {
    RankedMutexLock lock(mu_);
    if (hot_rows_ == 0) return Status::Ok();
    base = hot_base_;
    n = hot_rows_;
    text = text_size_;
    for (const auto& b : row_blocks_) rows_in.push_back(b.get());
    for (const auto& b : text_blocks_) text_in.push_back(b.get());
    for (const std::string* s : key_names_) names.push_back(*s);
  }

  // The rows follow one another through the text blocks, so the row blob
  // is the hot text itself. Terms are numbered in first-appearance order.
  SegmentRows rows;
  rows.offsets.reserve(n + 1);
  SegmentColumns columns;
  SegmentColumns::Strings& keys = columns.strings.emplace_back();
  keys.name = key_column_;
  keys.codes.resize(n);
  SegmentColumns::Ints& ts = columns.ints.emplace_back();
  ts.name = ts_column_;
  ts.presence.assign(n, 1);
  ts.values.resize(n);
  std::vector<uint32_t> term_of(names.size(), 0);  // code -> term id + 1
  for (size_t i = 0; i < n; ++i) {
    const Row& r = rows_in[i / kRowsPerBlock][i % kRowsPerBlock];
    rows.offsets.push_back(r.offset);
    uint32_t& term = term_of[r.key];
    if (term == 0) {
      keys.terms.push_back(names[r.key]);
      term = static_cast<uint32_t>(keys.terms.size());
    }
    keys.codes[i] = term;
    ts.values[i] = r.ts;
  }
  rows.offsets.push_back(text);
  for (uint64_t at = 0; at < text; at += kTextBlockBytes) {
    rows.blob.emplace_back(text_in[at / kTextBlockBytes],
                           std::min<uint64_t>(kTextBlockBytes, text - at));
  }

  auto seg = publish_segment(segment_file_path(options_.dir, base),
                             encode_segment(kind_, base, rows, columns),
                             kind_, options_.faults);
  if (!seg.ok()) return seg.status();
  std::vector<std::unique_ptr<Row[]>> sealed_rows;
  std::vector<std::unique_ptr<char[]>> sealed_text;
  {
    RankedMutexLock lock(mu_);
    segments_.push_back(std::move(seg.value()));
    hot_base_ += n;
    hot_rows_ = 0;
    text_size_ = 0;
    sealed_rows.swap(row_blocks_);
    sealed_text.swap(text_blocks_);
    std::fill(hot_counts_.begin(), hot_counts_.end(), 0);
    update_gauges();
  }
  flushes_total_->inc();
  return Status::Ok();
}

Status Table::truncate(uint64_t n) {
  RankedMutexLock wlock(write_mu_);
  std::vector<std::string> past;
  std::shared_ptr<const Segment> straddler;
  {
    RankedMutexLock lock(mu_);
    const size_t keep =
        n >= hot_base_ ? std::min<uint64_t>(hot_rows_, n - hot_base_) : 0;
    for (size_t i = keep; i < hot_rows_; ++i) --hot_counts_[row(i).key];
    text_size_ = keep == 0 ? 0 : row(keep - 1).offset + row(keep - 1).length;
    hot_rows_ = keep;
    row_blocks_.resize(blocks_for(hot_rows_, kRowsPerBlock));
    text_blocks_.resize(blocks_for(text_size_, kTextBlockBytes));
    if (n < hot_base_) {
      while (!segments_.empty() && segments_.back()->base_id() >= n) {
        past.push_back(segments_.back()->path());
        segments_.pop_back();
      }
      if (!segments_.empty() && segments_.back()->end_id() > n) {
        straddler = segments_.back();
      }
      hot_base_ = straddler != nullptr ? straddler->end_id() : n;
    }
    update_gauges();
  }
  // Highest id first, so a crash between unlinks leaves a prefix.
  for (const auto& p : past) std::remove(p.c_str());
  if (straddler == nullptr) return Status::Ok();
  auto cut = rewrite_prefix(
      *straddler, static_cast<uint32_t>(n - straddler->base_id()));
  if (!cut.ok()) return cut.status();
  RankedMutexLock lock(mu_);
  segments_.back() = std::move(cut.value());
  hot_base_ = n;
  return Status::Ok();
}

StatusOr<std::shared_ptr<const Segment>> Table::rewrite_prefix(
    const Segment& seg, uint32_t n) {
  // Rows [0, n) are one contiguous run of the segment's blob.
  const char* first = seg.doc_bytes(0).data();
  SegmentRows rows;
  rows.offsets.reserve(n + 1);
  for (uint32_t i = 0; i < n; ++i) {
    rows.offsets.push_back(
        static_cast<uint64_t>(seg.doc_bytes(i).data() - first));
  }
  const std::string_view last = seg.doc_bytes(n - 1);
  rows.offsets.push_back(
      static_cast<uint64_t>(last.data() + last.size() - first));
  rows.blob.emplace_back(first, rows.offsets.back());

  // Only the table's two columns are carried over, terms renumbered in
  // first-appearance order over the prefix.
  SegmentColumns columns;
  SegmentColumns::Strings& keys = columns.strings.emplace_back();
  keys.name = key_column_;
  keys.codes.assign(n, 0);
  if (const Segment::StringField* f = seg.string_field(key_column_)) {
    std::vector<uint32_t> term_of(f->terms.size(), 0);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t code = Segment::code_at(*f, i);
      if (code == 0) continue;
      uint32_t& term = term_of[code - 1];
      if (term == 0) {
        keys.terms.push_back(f->terms[code - 1]);
        term = static_cast<uint32_t>(keys.terms.size());
      }
      keys.codes[i] = term;
    }
  }
  SegmentColumns::Ints& ts = columns.ints.emplace_back();
  ts.name = ts_column_;
  ts.presence.assign(n, 0);
  ts.values.assign(n, 0);
  if (const Segment::IntField* f = seg.int_field(ts_column_)) {
    for (uint32_t i = 0; i < n; ++i) {
      ts.presence[i] = Segment::int_present(*f, i) ? 1 : 0;
      ts.values[i] = Segment::int_value(*f, i);
    }
  }

  const std::string bytes =
      encode_segment(kind_, seg.base_id(), rows, columns);
  const std::string& path = seg.path();
  const std::string tmp = path + ".merge.tmp";
  if (options_.faults != nullptr) {
    const FaultAction fault = options_.faults->check(kFaultSiteStorageRewrite);
    if (fault == FaultAction::kThrow) {
      return Status::Error("segment rewrite failed (injected)");
    }
    if (fault == FaultAction::kTornWrite) {
      // Crash mid-rewrite: a torn tmp, never renamed. The segment at `path`
      // is untouched; the stranded tmp is overwritten by the retry.
      (void)write_segment_file(tmp, {bytes.data(), bytes.size() / 2});
      return Status::Error("segment rewrite torn (injected)");
    }
  }
  if (Status s = write_segment_file(tmp, bytes); !s.ok()) return s;
  // Publish by renaming over the segment it replaces (same base id, same
  // name), so a crash leaves either the whole segment or its prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot publish segment: " + path);
  }
  return Segment::open(path, kind_);
}

std::optional<std::string> Table::get(uint64_t id) const {
  RankedMutexLock lock(mu_);
  if (id >= hot_base_) {
    if (id - hot_base_ >= hot_rows_) return std::nullopt;
    return bytes(row(static_cast<size_t>(id - hot_base_)));
  }
  // Last segment with base_id <= id.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), id,
      [](uint64_t v, const auto& seg) { return v < seg->base_id(); });
  if (it == segments_.begin()) return std::nullopt;
  const Segment& seg = **std::prev(it);
  if (id >= seg.end_id()) return std::nullopt;  // gap (rejected segment)
  return std::string(seg.doc_bytes(static_cast<uint32_t>(id - seg.base_id())));
}

size_t Table::scan(std::string_view key, int64_t from_ms, int64_t to_ms,
                   size_t limit, QueryStats* stats,
                   std::vector<std::string>* out) const {
  QueryStats local;
  size_t hits = 0;
  RankedMutexLock lock(mu_);
  for (const auto& seg : segments_) {
    if (hits >= limit) break;
    ++local.segments_considered;
    // A key missing from the dictionary, or a zone map disjoint from the
    // range, rules the whole segment out without reading a row.
    const Segment::StringField* keys = seg->string_field(key_column_);
    const Segment::IntField* ts = seg->int_field(ts_column_);
    if (keys == nullptr || ts == nullptr || ts->zone_max < from_ms ||
        ts->zone_min > to_ms) {
      ++local.segments_pruned;
      continue;
    }
    auto term = keys->term_ids.find(key);
    if (term == keys->term_ids.end()) {
      ++local.segments_pruned;
      continue;
    }
    const uint32_t len = keys->postings[term->second].second;
    for (uint32_t k = 0; k < len && hits < limit; ++k) {
      const uint32_t i = Segment::posting_at(*keys, term->second, k);
      ++local.docs_scanned;
      if (!Segment::int_present(*ts, i)) continue;
      const int64_t t = Segment::int_value(*ts, i);
      if (t < from_ms || t > to_ms) continue;
      ++hits;
      if (out != nullptr) out->emplace_back(seg->doc_bytes(i));
    }
  }
  if (local.segments_pruned > 0) pruned_total_->inc(local.segments_pruned);

  // The hot rows are a plain scan, skipped when none has the key.
  auto it = key_codes_.find(key);
  if (it != key_codes_.end() && hot_counts_[it->second] > 0) {
    const uint32_t code = it->second;
    for (size_t i = 0; i < hot_rows_ && hits < limit; ++i) {
      ++local.docs_scanned;
      const Row& r = row(i);
      if (r.key != code || r.ts < from_ms || r.ts > to_ms) continue;
      ++hits;
      if (out != nullptr) out->push_back(bytes(r));
    }
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

std::vector<std::string> Table::fetch(std::string_view key, int64_t from_ms,
                                      int64_t to_ms, size_t limit,
                                      QueryStats* stats) const {
  std::vector<std::string> out;
  scan(key, from_ms, to_ms, limit, stats, &out);
  return out;
}

size_t Table::count(std::string_view key, int64_t from_ms, int64_t to_ms,
                    QueryStats* stats) const {
  return scan(key, from_ms, to_ms, SIZE_MAX, stats, nullptr);
}

std::vector<std::string> Table::fetch_all() const {
  RankedMutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& seg : segments_) {
    for (uint32_t i = 0; i < seg->doc_count(); ++i) {
      out.emplace_back(seg->doc_bytes(i));
    }
  }
  for (size_t i = 0; i < hot_rows_; ++i) out.push_back(bytes(row(i)));
  return out;
}

size_t Table::size() const {
  RankedMutexLock lock(mu_);
  return hot_base_ + hot_rows_;
}

std::set<std::string> Table::keys() const {
  RankedMutexLock lock(mu_);
  std::set<std::string> out;
  for (const auto& seg : segments_) {
    if (const Segment::StringField* f = seg->string_field(key_column_)) {
      for (size_t t = 0; t < f->terms.size(); ++t) {
        if (f->postings[t].second > 0) out.emplace(f->terms[t]);
      }
    }
  }
  for (size_t c = 0; c < key_names_.size(); ++c) {
    if (hot_counts_[c] > 0) out.insert(*key_names_[c]);
  }
  out.erase(std::string());
  return out;
}

size_t Table::segment_count() const {
  RankedMutexLock lock(mu_);
  return segments_.size();
}

size_t Table::hot_count() const {
  RankedMutexLock lock(mu_);
  return hot_rows_;
}

}  // namespace loglens
