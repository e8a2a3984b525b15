#include "storage/log_store.h"

#include <algorithm>
#include <cstring>

#include "metrics/metrics.h"

namespace loglens {

namespace {

constexpr std::string_view kSourceColumn = "source";
constexpr std::string_view kTsColumn = "ts";

}  // namespace

LogStore::LogStore() : LogStore(DocumentStoreOptions{}) {}

LogStore::LogStore(DocumentStoreOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics, options_.name),
      hot_bytes_gauge_(&registry_or_global(options_.metrics)
                            .gauge("loglens_storage_hot_bytes",
                                   {{"store", options_.name}},
                                   "Bytes allocated for the hot rows")) {
  RankedMutexLock lock(mu_);
  if (!options_.dir.empty()) {
    segments_ = open_segment_dir(options_.dir, SegmentKind::kLogs, &rejected_);
    metrics_.rejected_total->inc(rejected_);
    if (!segments_.empty()) hot_base_ = segments_.back()->end_id();
    for (const auto& seg : segments_) {
      if (const auto* f = seg->string_field(kSourceColumn)) {
        for (std::string_view term : f->terms) intern(term);
      }
    }
  }
  update_gauges();
}

uint32_t LogStore::intern(std::string_view source) {
  if (last_source_ < source_names_.size() &&
      *source_names_[last_source_] == source) {
    return last_source_;
  }
  auto it = source_codes_.find(source);
  if (it == source_codes_.end()) {
    it = source_codes_
             .emplace(std::string(source),
                      static_cast<uint32_t>(source_names_.size()))
             .first;
    source_names_.push_back(&it->first);
  }
  last_source_ = it->second;
  return it->second;
}

const LogStore::Row& LogStore::row(size_t i) const {
  return row_blocks_[i / kRowsPerBlock][i % kRowsPerBlock];
}

std::string LogStore::line(const Row& r) const {
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

void LogStore::update_gauges() {
  metrics_.segments->set(static_cast<int64_t>(segments_.size()));
  metrics_.hot_docs->set(static_cast<int64_t>(hot_rows_));
  hot_bytes_gauge_->set(static_cast<int64_t>(
      row_blocks_.size() * kRowsPerBlock * sizeof(Row) +
      text_blocks_.size() * kTextBlockBytes));
}

void LogStore::add(std::string_view source, std::string_view raw,
                   int64_t ts_ms) {
  RankedMutexLock wlock(write_mu_);
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
    row_blocks_.back()[hot_rows_ % kRowsPerBlock] =
        Row{ts_ms, offset, static_cast<uint32_t>(raw.size()), intern(source)};
    ++hot_rows_;
    update_gauges();
    seal_now = !options_.dir.empty() && options_.hot_max_docs > 0 &&
               hot_rows_ % options_.hot_max_docs == 0;
  }
  if (seal_now) (void)seal();
}

Status LogStore::flush() {
  if (options_.dir.empty()) return Status::Ok();
  RankedMutexLock wlock(write_mu_);
  return seal();
}

Status LogStore::seal() {
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
    for (const std::string* s : source_names_) names.push_back(*s);
  }

  // The lines follow one another through the text blocks, so the row blob
  // is the hot text itself. Terms are numbered in first-appearance order.
  SegmentRows rows;
  rows.offsets.reserve(n + 1);
  SegmentColumns columns;
  SegmentColumns::Strings& sources = columns.strings.emplace_back();
  sources.name = kSourceColumn;
  sources.codes.resize(n);
  SegmentColumns::Ints& ts = columns.ints.emplace_back();
  ts.name = kTsColumn;
  ts.presence.assign(n, 1);
  ts.values.resize(n);
  std::vector<uint32_t> term_of(names.size(), 0);  // code -> term id + 1
  for (size_t i = 0; i < n; ++i) {
    const Row& r = rows_in[i / kRowsPerBlock][i % kRowsPerBlock];
    rows.offsets.push_back(r.offset);
    uint32_t& term = term_of[r.source];
    if (term == 0) {
      sources.terms.push_back(names[r.source]);
      term = static_cast<uint32_t>(sources.terms.size());
    }
    sources.codes[i] = term;
    ts.values[i] = r.ts;
  }
  rows.offsets.push_back(text);
  for (uint64_t at = 0; at < text; at += kTextBlockBytes) {
    rows.blob.emplace_back(text_in[at / kTextBlockBytes],
                           std::min<uint64_t>(kTextBlockBytes, text - at));
  }

  auto seg = publish_segment(
      segment_file_path(options_.dir, base),
      encode_segment(SegmentKind::kLogs, base, rows, columns),
      SegmentKind::kLogs, options_.faults);
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
    update_gauges();
  }
  metrics_.flushes_total->inc();
  return Status::Ok();
}

std::vector<std::string> LogStore::fetch(std::string_view source,
                                         int64_t from_ms, int64_t to_ms,
                                         size_t limit) const {
  std::vector<std::string> out;
  uint64_t pruned = 0;
  RankedMutexLock lock(mu_);
  for (const auto& seg : segments_) {
    if (out.size() >= limit) break;
    // A source missing from the dictionary, or a zone map disjoint from
    // the range, rules the whole segment out without reading a row.
    const Segment::StringField* sources = seg->string_field(kSourceColumn);
    const Segment::IntField* ts = seg->int_field(kTsColumn);
    if (sources == nullptr || ts == nullptr || ts->zone_max < from_ms ||
        ts->zone_min > to_ms) {
      ++pruned;
      continue;
    }
    auto term = sources->term_ids.find(source);
    if (term == sources->term_ids.end()) {
      ++pruned;
      continue;
    }
    const uint32_t len = sources->postings[term->second].second;
    for (uint32_t k = 0; k < len && out.size() < limit; ++k) {
      const uint32_t i = Segment::posting_at(*sources, term->second, k);
      if (!Segment::int_present(*ts, i)) continue;
      const int64_t t = Segment::int_value(*ts, i);
      if (t >= from_ms && t <= to_ms) out.emplace_back(seg->doc_bytes(i));
    }
  }
  if (pruned > 0) metrics_.pruned_total->inc(pruned);

  auto it = source_codes_.find(source);
  if (it == source_codes_.end()) return out;
  const uint32_t code = it->second;
  for (size_t i = 0; i < hot_rows_ && out.size() < limit; ++i) {
    const Row& r = row(i);
    if (r.source == code && r.ts >= from_ms && r.ts <= to_ms) {
      out.push_back(line(r));
    }
  }
  return out;
}

size_t LogStore::size() const {
  RankedMutexLock lock(mu_);
  return hot_base_ + hot_rows_;
}

std::set<std::string> LogStore::sources() const {
  RankedMutexLock lock(mu_);
  std::set<std::string> out;
  for (const std::string* s : source_names_) {
    if (!s->empty()) out.insert(*s);
  }
  return out;
}

size_t LogStore::segment_count() const {
  RankedMutexLock lock(mu_);
  return segments_.size();
}

size_t LogStore::hot_count() const {
  RankedMutexLock lock(mu_);
  return hot_rows_;
}


}  // namespace loglens
