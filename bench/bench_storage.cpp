// Storage table benchmark: ingest rate, zone-map pruning payoff, and the
// heap high-water claim, on Anomaly Storage.
//
// Ingests ~1M anomalies (LOGLENS_SCALE scales the count) through an
// AnomalyStore with a hot tier 1/16th the corpus, then counts one type over
// a recent time window two ways: through the anomaly table (zone maps prune
// segments outside the window, the type's postings drive the survivors)
// and by a full scan over the same segment files that parses every row and
// evaluates the predicate (a store without columns). Global operator
// new/delete are overridden to track live heap, which makes the memory
// claim checkable: the high-water mark must track the hot tier, not the
// corpus.
//
// Stages (BENCH_storage.json, gated in CI by tools/bench_compare.py):
//   storage_ingest                anomalies/sec through add+flush
//   storage_query_pruned          queries/sec, indexed + zone-pruned
//   storage_full_scan             queries/sec, parse-everything scan
//   storage_prune_speedup_x       pruned / full-scan rate (floor: 5x)
//   storage_heap_highwater_ratio_x  estimated all-in-memory bytes / peak
//                                 live heap during ingest (floor: 2x)
//
// Exits 1 in-process when the speedup is under 5x, the heap ratio is under
// 2x, or the two query paths disagree on a single count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "json/json.h"
#include "storage/segment.h"
#include "storage/stores.h"

// ---------------------------------------------------------------------------
// Heap accounting. Every allocation carries a small header recording its
// size and the offset back to the malloc'd base, so unsized deletes and
// over-aligned news are both exact. mmap'd segment payloads are deliberately
// invisible here: the claim under test is that *heap* stays O(hot segment)
// while the corpus lives in mapped files.
namespace {

std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};

void track(size_t n) {
  size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* tracked_alloc(size_t n, size_t align) {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  const size_t slack = align + 2 * sizeof(size_t);
  char* base = static_cast<char*>(std::malloc(n + slack));
  if (base == nullptr) return nullptr;
  uintptr_t raw = reinterpret_cast<uintptr_t>(base) + 2 * sizeof(size_t);
  uintptr_t user = (raw + align - 1) / align * align;
  reinterpret_cast<size_t*>(user)[-1] = n;
  reinterpret_cast<size_t*>(user)[-2] =
      user - reinterpret_cast<uintptr_t>(base);
  track(n);
  return reinterpret_cast<void*>(user);
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  const size_t n = reinterpret_cast<size_t*>(user)[-1];
  const size_t off = reinterpret_cast<size_t*>(user)[-2];
  g_live.fetch_sub(n, std::memory_order_relaxed);
  std::free(user - off);
}

}  // namespace

void* operator new(size_t n) {
  void* p = tracked_alloc(n, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, std::align_val_t a) {
  void* p = tracked_alloc(n, static_cast<size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n, 0);
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
// ---------------------------------------------------------------------------

namespace loglens {
namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Anomaly shape: categorical strings drawn from small pools (types,
// sources, reasons — the per-segment dictionaries stay small) and
// per-anomaly uniqueness in the event id, the log line and the time.
Anomaly make_anomaly(size_t i) {
  static const AnomalyType kTypes[] = {
      AnomalyType::kUnparsedLog,       AnomalyType::kMissingBeginState,
      AnomalyType::kMissingEndState,   AnomalyType::kMissingIntermediateState,
      AnomalyType::kOccurrenceViolation, AnomalyType::kDurationViolation,
      AnomalyType::kUnknownTransition, AnomalyType::kKeywordAlert};
  Anomaly a;
  a.type = kTypes[i % 8];
  a.severity = i % 7 == 0 ? "high" : "medium";
  a.reason = "request handled by worker w" + std::to_string(i % 64);
  a.timestamp_ms = static_cast<int64_t>(i);
  a.source = "s" + std::to_string(i % 32);
  a.event_id = "ev" + std::to_string((i * 2654435761u) % (1u << 30));
  a.automaton_id = static_cast<int>(i % 4);
  a.logs.push_back("2016/02/23 09:00:31 event " + a.event_id + " stalled");
  a.details.set("duration_ms", Json(static_cast<int64_t>(i % 1000)));
  return a;
}

struct StageResult {
  std::string stage;
  double msgs_per_sec = 0;
};

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_storage"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    obj.emplace_back("msgs_per_sec", Json(r.msgs_per_sec));
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_storage.json");
  out << Json(std::move(root)).dump() << "\n";
}

// The predicate evaluated against every row: what a store without columns
// does, and the baseline the pruned plan is measured against.
size_t full_scan_count(const std::vector<std::shared_ptr<const Segment>>& segs,
                       std::string_view type, int64_t from_ms, int64_t to_ms) {
  size_t hits = 0;
  for (const auto& seg : segs) {
    for (uint32_t i = 0; i < seg->doc_count(); ++i) {
      auto doc = Json::parse(seg->doc_bytes(i));
      if (!doc.ok() || doc.value().get_string("type") != type) continue;
      const Json* ts = doc.value().find("timestamp_ms");
      if (ts == nullptr || !ts->is_number()) continue;
      if (ts->as_int() >= from_ms && ts->as_int() <= to_ms) ++hits;
    }
  }
  return hits;
}

// Queries/sec for one query path; also returns the (stable) hit count so
// the two paths can be cross-checked.
template <typename Query>
double time_queries(Query&& query, size_t min_iters, double min_secs,
                    size_t* hits) {
  size_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double secs = 0;
  do {
    *hits = query();
    ++iters;
    secs = seconds_since(t0);
  } while (iters < min_iters || secs < min_secs);
  return static_cast<double>(iters) / secs;
}

}  // namespace
}  // namespace loglens

int main() {
  using loglens::AnomalyStore;
  using loglens::DocumentStoreOptions;
  using loglens::Json;
  using loglens::QueryStats;
  using loglens::SegmentKind;
  using loglens::StageResult;
  using loglens::Table;
  namespace fs = std::filesystem;

  const double scale = loglens::bench::scale_or(1.0);
  const size_t n_docs =
      std::max<size_t>(20'000, static_cast<size_t>(1'000'000 * scale));
  const size_t hot_max = std::max<size_t>(1'024, n_docs / 16);

  loglens::bench::print_header("storage table benchmarks");
  std::printf("corpus: %zu anomalies, hot tier %zu rows\n", n_docs, hot_max);

  // What would a store holding every anomaly as a Json tree keep? Sample
  // 10k anomalies' live-heap delta and extrapolate; done before ingest so
  // the sample never pollutes the tracked high-water mark.
  const size_t sample_n = 10'000;
  size_t in_memory_estimate;
  {
    const size_t before = g_live.load();
    std::vector<Json> sample;
    sample.reserve(sample_n);
    for (size_t i = 0; i < sample_n; ++i) {
      sample.push_back(loglens::make_anomaly(i).to_json());
    }
    const size_t per_doc = (g_live.load() - before) / sample_n;
    in_memory_estimate = per_doc * n_docs;
    std::printf("in-memory estimate: %zu bytes/anomaly -> %.1f MB for the "
                "corpus\n",
                per_doc, static_cast<double>(in_memory_estimate) / 1e6);
  }

  const std::string dir =
      (fs::temp_directory_path() / "loglens_bench_storage").string();
  fs::remove_all(dir);

  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = hot_max;
  opts.name = "bench";

  std::vector<StageResult> results;
  size_t peak_heap;
  size_t segments;
  {
    AnomalyStore store(opts);
    g_peak.store(g_live.load());  // high-water measured from here
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n_docs; ++i) store.add(loglens::make_anomaly(i));
    if (!store.flush().ok()) {
      std::printf("FAIL: final flush errored\n");
      return 1;
    }
    const double secs = loglens::seconds_since(t0);
    peak_heap = g_peak.load();
    segments = store.segment_count();
    StageResult ingest;
    ingest.stage = "storage_ingest";
    ingest.msgs_per_sec = static_cast<double>(n_docs) / secs;
    std::printf("storage_ingest: %zu anomalies in %.2fs = %.0f/sec "
                "(%zu segments, peak heap %.1f MB)\n",
                n_docs, secs, ingest.msgs_per_sec, segments,
                static_cast<double>(peak_heap) / 1e6);
    results.push_back(ingest);
  }

  // The probe query: one type over the most recent 1/64th of the time
  // range. Zone maps prune every segment outside the window; the type's
  // postings drive the survivors.
  const std::string type(
      loglens::anomaly_type_name(loglens::AnomalyType::kDurationViolation));
  const int64_t from_ms = static_cast<int64_t>(n_docs - n_docs / 64);
  const int64_t to_ms = static_cast<int64_t>(n_docs);

  Table table(opts, SegmentKind::kAnomalies);
  uint64_t rejected = 0;
  const auto scan_segments =
      loglens::open_segment_dir(dir, SegmentKind::kAnomalies, &rejected);

  QueryStats stats;
  table.count(type, from_ms, to_ms, &stats);
  std::printf("pruned plan: %zu/%zu segments pruned, %zu rows scanned\n",
              stats.segments_pruned, stats.segments_considered,
              stats.docs_scanned);

  size_t pruned_hits = 0, scan_hits = 0;
  StageResult pruned;
  pruned.stage = "storage_query_pruned";
  pruned.msgs_per_sec = loglens::time_queries(
      [&] { return table.count(type, from_ms, to_ms); }, 20, 0.5,
      &pruned_hits);
  std::printf("storage_query_pruned: %.1f queries/sec (%zu hits)\n",
              pruned.msgs_per_sec, pruned_hits);
  results.push_back(pruned);

  StageResult full;
  full.stage = "storage_full_scan";
  full.msgs_per_sec = loglens::time_queries(
      [&] {
        return loglens::full_scan_count(scan_segments, type, from_ms, to_ms);
      },
      3, 1.0, &scan_hits);
  std::printf("storage_full_scan: %.1f queries/sec (%zu hits)\n",
              full.msgs_per_sec, scan_hits);
  results.push_back(full);

  StageResult speedup;
  speedup.stage = "storage_prune_speedup_x";
  speedup.msgs_per_sec = pruned.msgs_per_sec / full.msgs_per_sec;
  std::printf("storage_prune_speedup_x: %.1fx\n", speedup.msgs_per_sec);
  results.push_back(speedup);

  StageResult heap;
  heap.stage = "storage_heap_highwater_ratio_x";
  heap.msgs_per_sec = static_cast<double>(in_memory_estimate) /
                      static_cast<double>(peak_heap == 0 ? 1 : peak_heap);
  std::printf("storage_heap_highwater_ratio_x: %.1fx (peak %.1f MB vs "
              "%.1f MB all-in-memory)\n",
              heap.msgs_per_sec, static_cast<double>(peak_heap) / 1e6,
              static_cast<double>(in_memory_estimate) / 1e6);
  results.push_back(heap);

  loglens::write_bench_json(results);
  fs::remove_all(dir);

  bool ok = true;
  if (pruned_hits != scan_hits || rejected != 0) {
    std::printf("FAIL: pruned and full-scan paths disagree "
                "(%zu vs %zu hits, %llu segments rejected)\n",
                pruned_hits, scan_hits,
                static_cast<unsigned long long>(rejected));
    ok = false;
  }
  if (speedup.msgs_per_sec < 5.0) {
    std::printf("FAIL: prune speedup %.1fx is under the 5x floor\n",
                speedup.msgs_per_sec);
    ok = false;
  }
  if (heap.msgs_per_sec < 2.0) {
    std::printf("FAIL: heap high-water ratio %.1fx is under the 2x floor "
                "(heap is not bounded by the hot segment)\n",
                heap.msgs_per_sec);
    ok = false;
  }
  return ok ? 0 : 1;
}
