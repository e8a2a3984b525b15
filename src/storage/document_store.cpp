#include "storage/document_store.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {

StoreMetrics::StoreMetrics(MetricsRegistry* metrics, const std::string& store) {
  MetricsRegistry& m = registry_or_global(metrics);
  const MetricLabels labels{{"store", store}};
  flushes_total = &m.counter("loglens_storage_flushes_total", labels,
                             "Hot-segment flushes completed");
  compactions_total = &m.counter("loglens_storage_compactions_total", labels,
                                 "Segment compactions completed");
  pruned_total =
      &m.counter("loglens_storage_segments_pruned_total", labels,
                 "Sealed segments skipped by zone map or dictionary miss");
  rejected_total =
      &m.counter("loglens_storage_segments_rejected_total", labels,
                 "Segment files rejected at open (torn or corrupt)");
  segments = &m.gauge("loglens_storage_segments", labels,
                      "Sealed segments currently open");
  hot_docs = &m.gauge("loglens_storage_hot_docs", labels,
                      "Documents in the mutable hot segment");
}

DocumentStore::DocumentStore() : DocumentStore(DocumentStoreOptions{}) {}

DocumentStore::DocumentStore(DocumentStoreOptions options)
    : options_(std::move(options)), metrics_(options_.metrics, options_.name) {
  open_dir();
}

void DocumentStore::open_dir() {
  if (options_.dir.empty()) return;
  segments_ = open_segment_dir(options_.dir, SegmentKind::kDocuments,
                               &rejected_);
  metrics_.rejected_total->inc(rejected_);
  hot_base_ = segments_.empty() ? 0 : segments_.back()->end_id();
  update_gauges(segments_.size(), 0);
}

void DocumentStore::update_gauges(size_t segments, size_t hot_docs) {
  metrics_.segments->set(static_cast<int64_t>(segments));
  metrics_.hot_docs->set(static_cast<int64_t>(hot_docs));
}

uint64_t DocumentStore::insert(Json doc) {
  uint64_t id;
  bool should_flush = false;
  {
    RankedMutexLock lock(mu_);
    id = hot_base_ + hot_docs_.size();
    hot_docs_.push_back(std::move(doc));
    metrics_.hot_docs->set(static_cast<int64_t>(hot_docs_.size()));
    should_flush = !options_.dir.empty() && options_.hot_max_docs > 0 &&
                   hot_docs_.size() >= options_.hot_max_docs;
  }
  if (should_flush) {
    // A failed flush (injected fault, full disk) keeps the documents hot;
    // the threshold re-triggers on the next insert.
    (void)flush_internal(false);
  }
  return id;
}

std::optional<Json> DocumentStore::get(uint64_t id) const {
  RankedMutexLock lock(mu_);
  if (id >= hot_base_) {
    const uint64_t local = id - hot_base_;
    if (local >= hot_docs_.size()) return std::nullopt;
    return hot_docs_[local];
  }
  // Last segment with base_id <= id.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), id,
                             [](uint64_t v, const auto& seg) {
                               return v < seg->base_id();
                             });
  if (it == segments_.begin()) return std::nullopt;
  const Segment& seg = **std::prev(it);
  if (id >= seg.end_id()) return std::nullopt;  // gap (rejected segment)
  auto parsed = Json::parse(seg.doc_bytes(static_cast<uint32_t>(id - seg.base_id())));
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed.value());
}

namespace {

// Pure predicate over one document — the semantics every plan below must
// reproduce exactly (the differential harness holds them to it).
bool matches(const Json& doc, const Query& q) {
  for (const auto& c : q.clauses) {
    const Json* v = doc.find(c.field);
    if (v == nullptr) return false;
    if (c.kind == QueryClause::Kind::kTerm) {
      if (!v->is_string() || v->as_string() != c.term) return false;
    } else {
      if (!v->is_number()) return false;
      int64_t n = v->as_int();
      if (n < c.min || n > c.max) return false;
    }
  }
  return true;
}

struct SegmentOutcome {
  size_t scanned = 0;
  bool pruned = false;  // skipped without scanning a single document
};

// Runs the query over one sealed segment. Appends parsed matches to `out`
// (or only counts when out == nullptr — the columnar count() path never
// touches document bytes). `hits` spans segments so `limit` is global.
SegmentOutcome run_segment(const Segment& seg, const Query& q,
                           bool zone_pruning, bool sequential, size_t limit,
                           size_t* hits, std::vector<Json>* out) {
  SegmentOutcome r;
  if (sequential) {
    for (uint32_t i = 0; i < seg.doc_count() && *hits < limit; ++i) {
      ++r.scanned;
      auto parsed = Json::parse(seg.doc_bytes(i));
      if (!parsed.ok() || !matches(parsed.value(), q)) continue;
      ++*hits;
      if (out != nullptr) out->push_back(std::move(parsed.value()));
    }
    return r;
  }

  // Resolve every clause against the columns. A term absent from the
  // dictionary, a field with no column, or (when enabled) a zone map
  // disjoint from the requested range proves no document here can match —
  // the whole segment is pruned without reading a row.
  struct TermPlan {
    const Segment::StringField* f;
    uint32_t term_id;
  };
  struct RangePlan {
    const Segment::IntField* f;
    int64_t min, max;
  };
  std::vector<TermPlan> terms;
  std::vector<RangePlan> ranges;
  int driver = -1;  // term plan with the smallest posting list
  for (const auto& c : q.clauses) {
    if (c.kind == QueryClause::Kind::kTerm) {
      const Segment::StringField* f = seg.string_field(c.field);
      if (f == nullptr) {
        r.pruned = true;
        return r;
      }
      auto it = f->term_ids.find(c.term);
      if (it == f->term_ids.end()) {
        r.pruned = true;
        return r;
      }
      terms.push_back(TermPlan{f, it->second});
      if (driver < 0 ||
          f->postings[it->second].second <
              terms[static_cast<size_t>(driver)]
                  .f->postings[terms[static_cast<size_t>(driver)].term_id]
                  .second) {
        driver = static_cast<int>(terms.size()) - 1;
      }
    } else {
      const Segment::IntField* f = seg.int_field(c.field);
      if (f == nullptr) {
        r.pruned = true;
        return r;
      }
      if (zone_pruning && (f->zone_max < c.min || f->zone_min > c.max)) {
        r.pruned = true;
        return r;
      }
      ranges.push_back(RangePlan{f, c.min, c.max});
    }
  }

  auto eval = [&](uint32_t i) {
    for (const TermPlan& t : terms) {
      if (Segment::code_at(*t.f, i) != t.term_id + 1) return false;
    }
    for (const RangePlan& rp : ranges) {
      if (!Segment::int_present(*rp.f, i)) return false;
      const int64_t v = Segment::int_value(*rp.f, i);
      if (v < rp.min || v > rp.max) return false;
    }
    return true;
  };
  auto emit = [&](uint32_t i) {
    ++*hits;
    if (out != nullptr) {
      auto parsed = Json::parse(seg.doc_bytes(i));
      if (parsed.ok()) out->push_back(std::move(parsed.value()));
    }
  };

  if (driver >= 0) {
    const TermPlan& d = terms[static_cast<size_t>(driver)];
    const uint32_t len = d.f->postings[d.term_id].second;
    for (uint32_t k = 0; k < len && *hits < limit; ++k) {
      const uint32_t i = Segment::posting_at(*d.f, d.term_id, k);
      ++r.scanned;
      if (eval(i)) emit(i);
    }
  } else {
    for (uint32_t i = 0; i < seg.doc_count() && *hits < limit; ++i) {
      ++r.scanned;
      if (eval(i)) emit(i);
    }
  }
  return r;
}

}  // namespace

size_t DocumentStore::execute(const Query& q, QueryStats* stats,
                              std::vector<Json>* out) const {
  QueryStats local;
  size_t hits = 0;
  RankedMutexLock lock(mu_);
  for (const auto& seg : segments_) {
    if (hits >= q.limit) break;
    ++local.segments_considered;
    SegmentOutcome oc =
        run_segment(*seg, q, options_.zone_map_pruning,
                    options_.sequential_scan, q.limit, &hits, out);
    local.docs_scanned += oc.scanned;
    if (oc.pruned) ++local.segments_pruned;
  }

  // The hot segment is a plain scan: it holds at most hot_max_docs
  // documents when `dir` is set, and nothing on the ingest path queries it.
  for (const Json& d : hot_docs_) {
    if (hits >= q.limit) break;
    ++local.docs_scanned;
    if (!matches(d, q)) continue;
    ++hits;
    if (out != nullptr) out->push_back(d);
  }

  if (local.segments_pruned > 0) {
    metrics_.pruned_total->inc(local.segments_pruned);
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

std::vector<Json> DocumentStore::query(const Query& q) const {
  return query(q, nullptr);
}

std::vector<Json> DocumentStore::query(const Query& q,
                                       QueryStats* stats) const {
  std::vector<Json> out;
  execute(q, stats, &out);
  return out;
}

size_t DocumentStore::count(const Query& q, QueryStats* stats) const {
  Query unlimited = q;
  unlimited.limit = SIZE_MAX;
  return execute(unlimited, stats, nullptr);
}

size_t DocumentStore::size() const {
  RankedMutexLock lock(mu_);
  return hot_base_ + hot_docs_.size();
}

size_t DocumentStore::segment_count() const {
  RankedMutexLock lock(mu_);
  return segments_.size();
}

size_t DocumentStore::hot_count() const {
  RankedMutexLock lock(mu_);
  return hot_docs_.size();
}

Status DocumentStore::truncate(uint64_t n) {
  RankedMutexLock flock(flush_mu_);
  std::vector<std::string> past;
  std::shared_ptr<const Segment> straddler;
  {
    RankedMutexLock lock(mu_);
    if (n >= hot_base_) {
      hot_docs_.resize(std::min<uint64_t>(hot_docs_.size(), n - hot_base_));
    } else {
      hot_docs_.clear();
      while (!segments_.empty() && segments_.back()->base_id() >= n) {
        past.push_back(segments_.back()->path());
        segments_.pop_back();
      }
      if (!segments_.empty() && segments_.back()->end_id() > n) {
        straddler = segments_.back();
      }
      hot_base_ = straddler != nullptr ? straddler->end_id() : n;
    }
    update_gauges(segments_.size(), hot_docs_.size());
  }
  // Highest id first, so a crash between unlinks leaves a prefix.
  for (const auto& p : past) std::remove(p.c_str());
  if (straddler == nullptr) return Status::Ok();
  auto cut = rewrite_segment({straddler}, n);
  if (!cut.ok()) return cut.status();
  RankedMutexLock lock(mu_);
  segments_.back() = std::move(cut.value());
  hot_base_ = n;
  return Status::Ok();
}

Status DocumentStore::save_jsonl(const std::string& path) const {
  RankedMutexLock lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::Error("cannot open for writing: " + path);
  for (const auto& seg : segments_) {
    for (uint32_t i = 0; i < seg->doc_count(); ++i) {
      // Sealed rows are already the byte-exact dump() — stream verbatim.
      const std::string_view row = seg->doc_bytes(i);
      out.write(row.data(), static_cast<std::streamsize>(row.size()));
      out.put('\n');
    }
  }
  std::string line;
  for (const auto& d : hot_docs_) {
    line.clear();
    d.dump_to(line);
    out << line << '\n';
  }
  return out ? Status::Ok() : Status::Error("write failed: " + path);
}

Status DocumentStore::load_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Error("cannot open: " + path);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto doc = Json::parse(line);
    if (!doc.ok()) {
      return Status::Error(path + ":" + std::to_string(line_no) + ": " +
                           doc.status().message());
    }
    if (!doc.value().is_object()) {
      // A scalar or array line would be a document no term or range clause
      // can ever reach — almost certainly a corrupt or foreign file.
      return Status::Error(path + ":" + std::to_string(line_no) +
                           ": not a JSON object");
    }
    insert(std::move(doc.value()));
  }
  return Status::Ok();
}

Status DocumentStore::flush() { return flush_internal(true); }

Status DocumentStore::flush_internal(bool force) {
  if (options_.dir.empty()) return Status::Ok();
  RankedMutexLock flock(flush_mu_);
  Status s = flush_locked(force);
  if (!s.ok()) return s;
  if (options_.auto_compact) {
    size_t n;
    {
      RankedMutexLock lock(mu_);
      n = segments_.size();
    }
    if (n >= options_.compact_min_segments) {
      // Compaction failure does not undo the successful flush; it is
      // retried on the next trigger and visible via fault counters.
      (void)compact_locked();
    }
  }
  return Status::Ok();
}

Status DocumentStore::flush_locked(bool force) {
  uint64_t base;
  std::vector<Json> docs;
  {
    RankedMutexLock lock(mu_);
    if (hot_docs_.empty()) return Status::Ok();
    if (!force && (options_.hot_max_docs == 0 ||
                   hot_docs_.size() < options_.hot_max_docs)) {
      return Status::Ok();  // a racing inserter's flush already ran
    }
    base = hot_base_;
    docs = hot_docs_;
  }
  // On failure the hot segment is untouched and the next flush retries.
  auto seg = publish_segment(segment_file_path(options_.dir, base),
                             encode_segment(base, docs),
                             SegmentKind::kDocuments, options_.faults);
  if (!seg.ok()) return seg.status();
  size_t nsegs, nhot;
  {
    RankedMutexLock lock(mu_);
    segments_.push_back(std::move(seg.value()));
    // Publish and retire the flushed prefix in one critical section, so no
    // reader ever sees the documents twice or not at all. Inserts that
    // landed while we encoded stay hot with their local ids shifted.
    hot_docs_.erase(hot_docs_.begin(),
                    hot_docs_.begin() + static_cast<ptrdiff_t>(docs.size()));
    hot_base_ = base + docs.size();
    nsegs = segments_.size();
    nhot = hot_docs_.size();
  }
  metrics_.flushes_total->inc();
  update_gauges(nsegs, nhot);
  return Status::Ok();
}

Status DocumentStore::compact() {
  if (options_.dir.empty()) return Status::Ok();
  RankedMutexLock flock(flush_mu_);
  return compact_locked();
}

Status DocumentStore::compact_locked() {
  // The earliest run of >= 2 adjacent segments that fits the size cap.
  // flush_mu_ (held) is what keeps `run`'s positions stable below: flush
  // only appends, and no other compaction can run.
  std::vector<std::shared_ptr<const Segment>> run;
  size_t run_begin = 0;
  size_t total = 0;
  {
    RankedMutexLock lock(mu_);
    for (size_t i = 0; i + 1 < segments_.size() && run.empty(); ++i) {
      if (segments_[i]->doc_count() > options_.compact_max_docs) continue;
      total = segments_[i]->doc_count();
      size_t j = i + 1;
      while (j < segments_.size() &&
             segments_[j]->base_id() == segments_[j - 1]->end_id() &&
             total + segments_[j]->doc_count() <= options_.compact_max_docs) {
        total += segments_[j]->doc_count();
        ++j;
      }
      if (j - i >= 2) {
        run_begin = i;
        run.assign(segments_.begin() + static_cast<ptrdiff_t>(i),
                   segments_.begin() + static_cast<ptrdiff_t>(j));
      }
    }
  }
  if (run.empty()) return Status::Ok();

  auto merged = rewrite_segment(run, run.back()->end_id());
  if (!merged.ok()) return merged.status();
  std::vector<std::string> stale;
  size_t nsegs, nhot;
  {
    RankedMutexLock lock(mu_);
    for (size_t k = 1; k < run.size(); ++k) stale.push_back(run[k]->path());
    segments_.erase(
        segments_.begin() + static_cast<ptrdiff_t>(run_begin) + 1,
        segments_.begin() + static_cast<ptrdiff_t>(run_begin + run.size()));
    segments_[run_begin] = std::move(merged.value());
    nsegs = segments_.size();
    nhot = hot_docs_.size();
  }
  // Readers still holding the replaced segments keep valid mappings; the
  // inodes outlive the unlink.
  for (const auto& p : stale) std::remove(p.c_str());
  metrics_.compactions_total->inc();
  update_gauges(nsegs, nhot);
  return Status::Ok();
}

StatusOr<std::shared_ptr<const Segment>> DocumentStore::rewrite_segment(
    const std::vector<std::shared_ptr<const Segment>>& inputs,
    uint64_t end_id) {
  const uint64_t base = inputs.front()->base_id();
  std::vector<Json> docs;
  docs.reserve(end_id - base);
  for (const auto& seg : inputs) {
    for (uint32_t i = 0; i < seg->doc_count() && seg->base_id() + i < end_id;
         ++i) {
      auto parsed = Json::parse(seg->doc_bytes(i));
      if (!parsed.ok()) {
        return Status::Error("segment row unreadable: " + seg->path());
      }
      docs.push_back(std::move(parsed.value()));
    }
  }
  const std::string bytes = encode_segment(base, docs);
  const std::string& path = inputs.front()->path();
  const std::string tmp = path + ".merge.tmp";
  if (options_.faults != nullptr) {
    const FaultAction fault = options_.faults->check(kFaultSiteStorageCompact);
    if (fault == FaultAction::kThrow) {
      return Status::Error("segment compaction failed (injected)");
    }
    if (fault == FaultAction::kTornWrite) {
      // Crash mid-merge: a torn tmp, never renamed. The segment at `path`
      // is untouched; the stranded tmp is overwritten by the retry.
      (void)write_segment_file(tmp, {bytes.data(), bytes.size() / 2});
      return Status::Error("segment compaction torn (injected)");
    }
  }
  if (Status s = write_segment_file(tmp, bytes); !s.ok()) return s;
  // Publish by renaming over the segment it replaces (same base id, same
  // name). A crash after this rename leaves compaction's other inputs
  // subsumed on disk; open_dir() unlinks them as stale.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot publish segment: " + path);
  }
  return Segment::open(path);
}

}  // namespace loglens
