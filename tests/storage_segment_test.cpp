// Segment-file property tests: crash-shaped damage and the machinery that
// survives it.
//
// A segment written by the tiered engine is truncated at every byte boundary
// and bit-flipped at every byte offset; open() must reject every damaged
// variant (magic + size + checksum validation). Fault-injected flushes and
// compactions (throw and torn-write) must leave prior segments and the hot
// tier untouched and succeed on retry. Zone maps and posting dictionaries
// must prune, observable through QueryStats and the storage metrics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "storage/document_store.h"
#include "storage/segment.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("loglens_segment_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

Json doc(const std::string& source, int64_t ts) {
  JsonObject o;
  o.emplace_back("source", Json(source));
  o.emplace_back("ts", Json(ts));
  return Json(std::move(o));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every proper prefix of a segment file must be rejected at open time, and
// so must every single corrupted byte. This is the property that makes the
// torn-write fault recoverable: no half-written segment can ever be taken
// for data.
TEST(SegmentFile, TornAtEveryByteBoundaryRejected) {
  const std::string dir = test_dir("torn");
  fs::create_directories(dir);
  std::vector<Json> docs;
  for (int i = 0; i < 20; ++i) {
    docs.push_back(doc(i % 2 == 0 ? "web" : "db", 100 + i));
  }
  const std::string bytes = encode_segment(0, docs);
  const std::string good = dir + "/seg-good.llseg";
  write_file(good, bytes);
  ASSERT_TRUE(Segment::open(good).ok());

  const std::string victim = dir + "/seg-victim.llseg";
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    write_file(victim, bytes.substr(0, cut));
    auto opened = Segment::open(victim);
    ASSERT_FALSE(opened.ok()) << "truncation at byte " << cut << " of "
                              << bytes.size() << " was accepted";
  }
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    write_file(victim, bad);
    auto opened = Segment::open(victim);
    ASSERT_FALSE(opened.ok()) << "byte flip at offset " << at
                              << " was accepted";
  }
  fs::remove_all(dir);
}

// A corrupt segment in the directory is rejected and counted at open, and
// the untouched segments before it remain fully readable.
TEST(SegmentFile, CorruptSegmentRejectedPriorSegmentsIntact) {
  const std::string dir = test_dir("reject");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  opts.auto_compact = false;
  std::string last_path;
  {
    DocumentStore store(opts);
    for (int i = 0; i < 12; ++i) store.insert(doc("web", i));
    ASSERT_TRUE(store.flush().ok());
    ASSERT_EQ(store.segment_count(), 3u);
  }
  // Corrupt the newest segment (highest base id sorts last).
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_EQ(paths.size(), 3u);
  std::string bytes = read_file(paths.back());
  bytes[bytes.size() / 2] ^= 0x5a;
  write_file(paths.back(), bytes);

  DocumentStore reopened(opts);
  EXPECT_EQ(reopened.rejected_segments(), 1u);
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_EQ(reopened.size(), 8u);  // two intact segments of four
  for (uint64_t id = 0; id < 8; ++id) {
    auto got = reopened.get(id);
    ASSERT_TRUE(got.has_value()) << "id " << id;
    EXPECT_EQ(got->get_string("source"), "web");
    EXPECT_EQ(got->find("ts")->as_int(), static_cast<int64_t>(id));
  }
  // The rejected file is kept on disk for forensics, not deleted.
  EXPECT_TRUE(fs::exists(paths.back()));
  fs::remove_all(dir);
}

// An injected torn write at the flush site persists a prefix at the final
// path; the flush reports failure, the hot tier and prior segments are
// untouched, and the retried flush renames a good segment over the wreck.
TEST(SegmentFile, FlushTornWriteRecoversOnRetry) {
  const std::string dir = test_dir("flush_fault");
  FaultInjector faults(7);
  MetricsRegistry metrics;
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;  // manual flushes only
  opts.auto_compact = false;
  opts.faults = &faults;
  opts.metrics = &metrics;
  DocumentStore store(opts);
  for (int i = 0; i < 4; ++i) store.insert(doc("web", i));
  ASSERT_TRUE(store.flush().ok());
  ASSERT_EQ(store.segment_count(), 1u);

  for (int i = 4; i < 8; ++i) store.insert(doc("db", i));
  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteSegmentFlush, torn);
  Status s = store.flush();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(faults.triggered(kFaultSiteSegmentFlush), 1u);
  // Nothing was lost: the hot docs are still hot, the first segment still
  // answers, and a full query sees all eight documents.
  EXPECT_EQ(store.hot_count(), 4u);
  EXPECT_EQ(store.size(), 8u);
  EXPECT_EQ(store.count(Query{}), 8u);

  // The torn file sits at the final path and a cold reopen must reject it
  // (losing only the unflushed docs, as a real crash would).
  {
    DocumentStore crashed(opts);
    EXPECT_EQ(crashed.rejected_segments(), 1u);
    EXPECT_EQ(crashed.size(), 4u);
  }

  // The live store's retry renames a complete segment over the torn file.
  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(store.hot_count(), 0u);
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_EQ(store.count(Query{}), 8u);
  EXPECT_EQ(metrics.counter("loglens_storage_flushes_total",
                            {{"store", "docs"}})
                .value(),
            2u);

  // kThrow at the same site: status error, no file side effects. The
  // trigger cap is cumulative per site (one spent by the torn write).
  for (int i = 8; i < 10; ++i) store.insert(doc("edge", i));
  FaultSpec die;
  die.action = FaultAction::kThrow;
  die.max_triggers = 2;
  faults.arm(kFaultSiteSegmentFlush, die);
  EXPECT_FALSE(store.flush().ok());
  EXPECT_EQ(store.hot_count(), 2u);
  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(store.size(), 10u);
  fs::remove_all(dir);
}

// A fault mid-compaction (throw or torn tmp) leaves every input segment
// untouched; the retry merges them and ids stay stable throughout.
TEST(SegmentFile, CompactionFaultLeavesInputsUntouched) {
  const std::string dir = test_dir("compact_fault");
  FaultInjector faults(11);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 3;
  opts.auto_compact = false;
  opts.faults = &faults;
  DocumentStore store(opts);
  for (int i = 0; i < 9; ++i) store.insert(doc("cache", i));
  ASSERT_TRUE(store.flush().ok());
  ASSERT_EQ(store.segment_count(), 3u);

  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteStorageCompact, torn);
  EXPECT_FALSE(store.compact().ok());
  EXPECT_EQ(store.segment_count(), 3u);
  EXPECT_EQ(store.size(), 9u);

  FaultSpec die;  // cumulative cap: one trigger already spent by the tear
  die.action = FaultAction::kThrow;
  die.max_triggers = 2;
  faults.arm(kFaultSiteStorageCompact, die);
  EXPECT_FALSE(store.compact().ok());
  EXPECT_EQ(store.segment_count(), 3u);

  ASSERT_TRUE(store.compact().ok());
  EXPECT_EQ(store.segment_count(), 1u);
  EXPECT_EQ(store.size(), 9u);
  for (uint64_t id = 0; id < 9; ++id) {
    auto got = store.get(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->find("ts")->as_int(), static_cast<int64_t>(id));
  }
  // No stranded merge tmp survives the successful retry's overwrite+rename.
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension().string(), ".llseg") << e.path();
  }
  fs::remove_all(dir);
}

// Zone maps prune segments whose integer range cannot intersect the query;
// dictionary misses prune segments that never saw the term. QueryStats makes
// both observable, and turning zone pruning off restores the full scan.
TEST(SegmentQuery, ZoneMapAndDictionaryPruning) {
  const std::string dir = test_dir("prune");
  MetricsRegistry metrics;
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;
  opts.auto_compact = false;
  opts.metrics = &metrics;
  DocumentStore store(opts);
  // Three sealed segments with disjoint time ranges and distinct sources.
  const char* sources[] = {"alpha", "beta", "gamma"};
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) {
      store.insert(doc(sources[s], s * 1000 + i));
    }
    ASSERT_TRUE(store.flush().ok());
  }
  ASSERT_EQ(store.segment_count(), 3u);

  Query mid;
  mid.clauses.push_back(QueryClause::Range("ts", 1000, 1049));
  QueryStats stats;
  auto hits = store.query(mid, &stats);
  EXPECT_EQ(hits.size(), 50u);
  EXPECT_EQ(stats.segments_considered, 3u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_EQ(stats.docs_scanned, 50u);  // only the matching segment's rows
  EXPECT_EQ(metrics
                .counter("loglens_storage_segments_pruned_total",
                         {{"store", "docs"}})
                .value(),
            2u);

  Query term;
  term.clauses.push_back(QueryClause::Term("source", "beta"));
  stats = QueryStats{};
  EXPECT_EQ(store.count(term, &stats), 50u);
  EXPECT_EQ(stats.segments_pruned, 2u);  // dictionary miss in alpha/gamma

  Query absent;
  absent.clauses.push_back(QueryClause::Term("no_such_field", "x"));
  stats = QueryStats{};
  EXPECT_EQ(store.count(absent, &stats), 0u);
  EXPECT_EQ(stats.segments_pruned, 3u);
  EXPECT_EQ(stats.docs_scanned, 0u);

  // Same store, zone pruning off: every segment is scanned but results are
  // identical — pruning is an optimization, never a filter.
  DocumentStoreOptions raw = opts;
  raw.zone_map_pruning = false;
  raw.metrics = &metrics;
  DocumentStore unpruned(raw);
  ASSERT_EQ(unpruned.size(), 150u);
  stats = QueryStats{};
  auto raw_hits = unpruned.query(mid, &stats);
  EXPECT_EQ(raw_hits.size(), 50u);
  EXPECT_EQ(stats.segments_pruned, 0u);
  EXPECT_EQ(stats.docs_scanned, 150u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].dump(), raw_hits[i].dump());
  }

  // Gauges reflect the sealed/hot split.
  EXPECT_EQ(
      metrics.gauge("loglens_storage_segments", {{"store", "docs"}}).value(),
      3);
  EXPECT_EQ(
      metrics.gauge("loglens_storage_hot_docs", {{"store", "docs"}}).value(),
      0);
  fs::remove_all(dir);
}

// sequential_scan mode bypasses columns entirely (the benchmark baseline);
// it must produce byte-identical results to the indexed path.
TEST(SegmentQuery, SequentialScanMatchesIndexedScan) {
  const std::string dir = test_dir("seq");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 16;
  opts.auto_compact = false;
  DocumentStore indexed(opts);
  for (int i = 0; i < 100; ++i) {
    indexed.insert(doc(i % 3 == 0 ? "web" : "db", i));
  }
  ASSERT_TRUE(indexed.flush().ok());

  DocumentStoreOptions seq = opts;
  seq.sequential_scan = true;
  DocumentStore scanner(seq);
  ASSERT_EQ(scanner.size(), 100u);

  Query q;
  q.clauses.push_back(QueryClause::Term("source", "web"));
  q.clauses.push_back(QueryClause::Range("ts", 10, 80));
  QueryStats istats, sstats;
  auto a = indexed.query(q, &istats);
  auto b = scanner.query(q, &sstats);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].dump(), b[i].dump());
  EXPECT_EQ(sstats.docs_scanned, 100u);          // full scan by construction
  EXPECT_LT(istats.docs_scanned, sstats.docs_scanned);
  fs::remove_all(dir);
}

// truncate(n) keeps exactly the first n documents wherever the cut lands:
// at 0, on a segment boundary, inside a sealed segment (rewritten to its
// prefix) and inside the hot tier. The next insert gets id n, and a reopen
// over the directory holds exactly the first n documents.
TEST(SegmentFile, TruncateKeepsPrefixAndResumesIds) {
  auto expect_prefix = [](const DocumentStore& store, uint64_t n) {
    ASSERT_EQ(store.size(), n);
    const std::vector<Json> all = store.query(Query{});
    ASSERT_EQ(all.size(), n);
    for (uint64_t id = 0; id < n; ++id) {
      EXPECT_EQ(all[id].find("ts")->as_int(), static_cast<int64_t>(id));
      auto got = store.get(id);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->find("ts")->as_int(), static_cast<int64_t>(id));
    }
    EXPECT_FALSE(store.get(n).has_value());
  };
  // 14 documents: sealed [0,4) [4,8) [8,12), hot 12 and 13.
  struct Cut {
    uint64_t n;
    size_t segments;  // sealed segments left by the cut
  };
  for (const Cut& cut : {Cut{0, 0}, Cut{8, 2}, Cut{6, 2}, Cut{13, 3}}) {
    const uint64_t n = cut.n;
    SCOPED_TRACE("cut at " + std::to_string(n));
    const std::string dir = test_dir("truncate");
    DocumentStoreOptions opts;
    opts.dir = dir;
    opts.hot_max_docs = 4;
    opts.auto_compact = false;
    {
      DocumentStore store(opts);
      for (int i = 0; i < 14; ++i) store.insert(doc("web", i));
      ASSERT_EQ(store.segment_count(), 3u);
      ASSERT_TRUE(store.truncate(n).ok());
      expect_prefix(store, n);
      EXPECT_EQ(store.segment_count(), cut.segments);
      EXPECT_EQ(store.insert(doc("web", static_cast<int64_t>(n))), n);
      ASSERT_TRUE(store.truncate(n).ok());
      ASSERT_TRUE(store.truncate(n + 5).ok());  // nothing past n to cut
      ASSERT_TRUE(store.flush().ok());
      expect_prefix(store, n);
    }
    DocumentStore reopened(opts);
    EXPECT_EQ(reopened.rejected_segments(), 0u);
    expect_prefix(reopened, n);
    EXPECT_EQ(reopened.insert(doc("web", static_cast<int64_t>(n))), n);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace loglens
