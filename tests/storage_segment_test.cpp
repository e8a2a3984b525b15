// Segment-file property tests: crash-shaped damage and the machinery that
// survives it.
//
// A segment written by the table is truncated at every byte boundary and
// bit-flipped at every byte offset; open() must reject every damaged variant
// (magic + size + checksum validation). Fault-injected seals and truncate
// rewrites (throw and torn write) must leave prior segments and the hot rows
// untouched and succeed on retry. A segment another one covers is refused
// at open. Zone maps and key dictionaries must prune, observable through
// QueryStats and the storage metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("loglens_segment_" + tag)).string();
  fs::remove_all(dir);
  return dir;
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

std::string row(int i) { return "row " + std::to_string(i); }

std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".llseg") paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Every proper prefix of a segment file must be rejected at open time, and
// so must every single corrupted byte, for both kinds. This is the property
// that makes the torn-write fault recoverable: no half-written segment can
// ever be taken for data.
TEST(SegmentFile, TornAtEveryByteBoundaryRejected) {
  for (SegmentKind kind : {SegmentKind::kAnomalies, SegmentKind::kLogs}) {
    const std::string dir = test_dir("torn");
    DocumentStoreOptions opts;
    opts.dir = dir;
    opts.hot_max_docs = 0;
    {
      Table table(opts, kind);
      for (int i = 0; i < 20; ++i) {
        table.add(i % 2 == 0 ? "web" : "db", row(i), 100 + i);
      }
      ASSERT_TRUE(table.flush().ok());
    }
    const std::string good = segment_paths(dir).at(0);
    const std::string bytes = read_file(good);
    ASSERT_TRUE(Segment::open(good, kind).ok());

    const std::string victim = dir + "/seg-victim.llseg";
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      write_file(victim, bytes.substr(0, cut));
      ASSERT_FALSE(Segment::open(victim, kind).ok())
          << "truncation at byte " << cut << " of " << bytes.size()
          << " was accepted";
    }
    for (size_t at = 0; at < bytes.size(); ++at) {
      std::string bad = bytes;
      bad[at] = static_cast<char>(bad[at] ^ 0x5a);
      write_file(victim, bad);
      ASSERT_FALSE(Segment::open(victim, kind).ok())
          << "byte flip at offset " << at << " was accepted";
    }
    fs::remove_all(dir);
  }
}

// A corrupt segment in the directory is rejected and counted at open, and
// the untouched segments before it remain fully readable.
TEST(SegmentFile, CorruptSegmentRejectedPriorSegmentsIntact) {
  const std::string dir = test_dir("reject");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  {
    Table table(opts, SegmentKind::kAnomalies);
    for (int i = 0; i < 12; ++i) table.add("web", row(i), i);
    ASSERT_TRUE(table.flush().ok());
    ASSERT_EQ(table.segment_count(), 3u);
  }
  // Corrupt the newest segment (highest base id sorts last).
  const std::vector<std::string> paths = segment_paths(dir);
  ASSERT_EQ(paths.size(), 3u);
  std::string bytes = read_file(paths.back());
  bytes[bytes.size() / 2] ^= 0x5a;
  write_file(paths.back(), bytes);

  Table reopened(opts, SegmentKind::kAnomalies);
  EXPECT_EQ(reopened.rejected_segments(), 1u);
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_EQ(reopened.size(), 8u);  // two intact segments of four
  for (int id = 0; id < 8; ++id) {
    EXPECT_EQ(reopened.get(static_cast<uint64_t>(id)), row(id));
  }
  EXPECT_EQ(reopened.count("web", 0, 7), 8u);
  // The rejected file is kept on disk for forensics, not deleted.
  EXPECT_TRUE(fs::exists(paths.back()));
  fs::remove_all(dir);
}

// A segment that an earlier one covers, wholly or in part, is produced by
// no writer: it is refused, counted and left on disk, and the segment that
// covers it keeps answering for its ids.
TEST(SegmentFile, CoveredSegmentRejectedAtOpen) {
  const std::string dir = test_dir("covered");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  {
    Table table(opts, SegmentKind::kAnomalies);
    for (int i = 0; i < 8; ++i) table.add("web", row(i), i);
    ASSERT_EQ(table.segment_count(), 2u);  // [0,4) and [4,8)
  }
  // Plant [5,7), wholly inside [4,8), and [6,10), which overlaps its end.
  auto plant = [&](uint64_t base, uint32_t n) {
    SegmentRows rows;
    std::string blob;
    SegmentColumns columns;
    SegmentColumns::Strings& keys = columns.strings.emplace_back();
    keys.name = "type";
    keys.terms = {"planted"};
    SegmentColumns::Ints& ts = columns.ints.emplace_back();
    ts.name = "timestamp_ms";
    for (uint32_t i = 0; i < n; ++i) {
      rows.offsets.push_back(blob.size());
      blob += "planted " + std::to_string(base + i);
      keys.codes.push_back(1);
      ts.presence.push_back(1);
      ts.values.push_back(static_cast<int64_t>(base + i));
    }
    rows.offsets.push_back(blob.size());
    rows.blob.push_back(blob);
    const std::string path = segment_file_path(dir, base);
    EXPECT_TRUE(write_segment_file(path, encode_segment(SegmentKind::kAnomalies,
                                                        base, rows, columns))
                    .ok());
    return path;
  };
  const std::string covered = plant(5, 2);
  const std::string overlapping = plant(6, 4);

  MetricsRegistry metrics;
  opts.metrics = &metrics;
  Table reopened(opts, SegmentKind::kAnomalies);
  EXPECT_EQ(reopened.rejected_segments(), 2u);
  EXPECT_EQ(metrics
                .counter("loglens_storage_segments_rejected_total",
                         {{"store", "docs"}})
                .value(),
            2u);
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_EQ(reopened.size(), 8u);
  for (int id = 0; id < 8; ++id) {
    EXPECT_EQ(reopened.get(static_cast<uint64_t>(id)), row(id));
  }
  EXPECT_TRUE(reopened.fetch("planted").empty());
  EXPECT_TRUE(fs::exists(covered));
  EXPECT_TRUE(fs::exists(overlapping));
  fs::remove_all(dir);
}

// An injected torn write at the seal site persists a prefix at the final
// path; the flush reports failure, the hot rows and prior segments are
// untouched, and the retried flush renames a good segment over the wreck.
TEST(SegmentFile, FlushTornWriteRecoversOnRetry) {
  const std::string dir = test_dir("flush_fault");
  FaultInjector faults(7);
  MetricsRegistry metrics;
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;  // manual flushes only
  opts.faults = &faults;
  opts.metrics = &metrics;
  Table table(opts, SegmentKind::kAnomalies);
  for (int i = 0; i < 4; ++i) table.add("web", row(i), i);
  ASSERT_TRUE(table.flush().ok());
  ASSERT_EQ(table.segment_count(), 1u);

  for (int i = 4; i < 8; ++i) table.add("db", row(i), i);
  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteSegmentFlush, torn);
  EXPECT_FALSE(table.flush().ok());
  EXPECT_EQ(faults.triggered(kFaultSiteSegmentFlush), 1u);
  // Nothing was lost: the hot rows are still hot, the first segment still
  // answers, and every row reads back.
  EXPECT_EQ(table.hot_count(), 4u);
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.fetch_all().size(), 8u);

  // The torn file sits at the final path and a cold reopen must reject it
  // (losing only the unsealed rows, as a real crash would).
  {
    Table crashed(opts, SegmentKind::kAnomalies);
    EXPECT_EQ(crashed.rejected_segments(), 1u);
    EXPECT_EQ(crashed.size(), 4u);
  }

  // The live table's retry renames a complete segment over the torn file.
  ASSERT_TRUE(table.flush().ok());
  EXPECT_EQ(table.hot_count(), 0u);
  EXPECT_EQ(table.segment_count(), 2u);
  EXPECT_EQ(table.count("db"), 4u);
  EXPECT_EQ(metrics.counter("loglens_storage_flushes_total",
                            {{"store", "docs"}})
                .value(),
            2u);

  // kThrow at the same site: status error, no file side effects. The
  // trigger cap is cumulative per site (one spent by the torn write).
  for (int i = 8; i < 10; ++i) table.add("edge", row(i), i);
  FaultSpec die;
  die.action = FaultAction::kThrow;
  die.max_triggers = 2;
  faults.arm(kFaultSiteSegmentFlush, die);
  EXPECT_FALSE(table.flush().ok());
  EXPECT_EQ(table.hot_count(), 2u);
  ASSERT_TRUE(table.flush().ok());
  EXPECT_EQ(table.size(), 10u);
  fs::remove_all(dir);
}

// A fault while truncate() rewrites the segment straddling the cut (throw,
// or a torn tmp) leaves that segment untouched on disk and a prefix of at
// least n rows, before and after a reopen; a retry finishes the cut.
TEST(SegmentFile, TruncateRewriteFaultLeavesStraddlerUntouched) {
  const std::string dir = test_dir("rewrite_fault");
  FaultInjector faults(11);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  opts.faults = &faults;
  Table table(opts, SegmentKind::kAnomalies);
  for (int i = 0; i < 12; ++i) table.add("cache", row(i), i);
  ASSERT_EQ(table.segment_count(), 3u);  // [0,4) [4,8) [8,12)
  const std::string straddler = segment_file_path(dir, 4);
  const std::string before = read_file(straddler);

  auto expect_at_least = [&](const Table& t, uint64_t n) {
    ASSERT_GE(t.size(), n);
    for (uint64_t id = 0; id < n; ++id) {
      EXPECT_EQ(t.get(id), row(static_cast<int>(id)));
    }
  };

  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.max_triggers = 1;
  faults.arm(kFaultSiteStorageRewrite, torn);
  EXPECT_FALSE(table.truncate(6).ok());
  EXPECT_EQ(faults.triggered(kFaultSiteStorageRewrite), 1u);
  EXPECT_EQ(read_file(straddler), before);
  EXPECT_FALSE(fs::exists(segment_file_path(dir, 8)));  // past the cut
  EXPECT_EQ(table.segment_count(), 2u);
  expect_at_least(table, 6);
  {
    Table crashed(opts, SegmentKind::kAnomalies);
    EXPECT_EQ(crashed.rejected_segments(), 0u);  // the torn tmp is no .llseg
    expect_at_least(crashed, 6);
  }

  FaultSpec die;  // cumulative cap: one trigger already spent by the tear
  die.action = FaultAction::kThrow;
  die.max_triggers = 2;
  faults.arm(kFaultSiteStorageRewrite, die);
  EXPECT_FALSE(table.truncate(6).ok());
  EXPECT_EQ(read_file(straddler), before);
  expect_at_least(table, 6);

  ASSERT_TRUE(table.truncate(6).ok());
  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table.segment_count(), 2u);
  expect_at_least(table, 6);
  EXPECT_FALSE(table.get(6).has_value());
  EXPECT_EQ(table.add("cache", row(6), 6), 6u);
  // No stranded tmp survives the successful retry's overwrite and rename.
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension().string(), ".llseg") << e.path();
  }
  Table reopened(opts, SegmentKind::kAnomalies);
  EXPECT_EQ(reopened.size(), 6u);  // the re-added row 6 was never sealed
  expect_at_least(reopened, 6);
  fs::remove_all(dir);
}

// Zone maps prune segments whose time range cannot intersect the window;
// dictionary misses prune segments that never saw the key. QueryStats makes
// both observable, and so does the pruned-segments counter.
TEST(SegmentQuery, ZoneMapAndDictionaryPruning) {
  const std::string dir = test_dir("prune");
  MetricsRegistry metrics;
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;
  opts.metrics = &metrics;
  LogStore store(opts);
  // Three sealed segments with disjoint time ranges: each holds 50 "web"
  // rows and 50 of its own source.
  const char* sources[] = {"alpha", "beta", "gamma"};
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) {
      store.add("web", row(i), s * 1000 + i);
      store.add(sources[s], row(i), s * 1000 + i);
    }
    ASSERT_TRUE(store.flush().ok());
  }
  ASSERT_EQ(store.segment_count(), 3u);

  QueryStats stats;
  EXPECT_EQ(store.fetch("web", 1000, 1049, SIZE_MAX, &stats).size(), 50u);
  EXPECT_EQ(stats.segments_considered, 3u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_EQ(stats.docs_scanned, 50u);  // only the web postings of one segment
  EXPECT_EQ(metrics
                .counter("loglens_storage_segments_pruned_total",
                         {{"store", "docs"}})
                .value(),
            2u);

  stats = QueryStats{};
  EXPECT_EQ(store.count("beta", INT64_MIN, INT64_MAX, &stats), 50u);
  EXPECT_EQ(stats.segments_pruned, 2u);  // dictionary miss in alpha/gamma
  EXPECT_EQ(stats.docs_scanned, 50u);

  stats = QueryStats{};
  EXPECT_EQ(store.count("no_such_source", INT64_MIN, INT64_MAX, &stats), 0u);
  EXPECT_EQ(stats.segments_pruned, 3u);
  EXPECT_EQ(stats.docs_scanned, 0u);

  // A window between the segments' ranges prunes all three by zone map.
  stats = QueryStats{};
  EXPECT_TRUE(store.fetch("web", 500, 900, SIZE_MAX, &stats).empty());
  EXPECT_EQ(stats.segments_pruned, 3u);

  // Gauges reflect the sealed/hot split.
  EXPECT_EQ(
      metrics.gauge("loglens_storage_segments", {{"store", "docs"}}).value(),
      3);
  EXPECT_EQ(
      metrics.gauge("loglens_storage_hot_docs", {{"store", "docs"}}).value(),
      0);
  fs::remove_all(dir);
}

// truncate(n) keeps exactly the first n rows wherever the cut lands: at 0,
// on a segment boundary, inside a sealed segment (rewritten to its prefix)
// and inside the hot rows. The next add gets id n, and a reopen over the
// directory holds exactly the first n rows.
TEST(SegmentFile, TruncateKeepsPrefixAndResumesIds) {
  auto expect_prefix = [](const Table& table, uint64_t n) {
    ASSERT_EQ(table.size(), n);
    const std::vector<std::string> all = table.fetch_all();
    ASSERT_EQ(all.size(), n);
    for (uint64_t id = 0; id < n; ++id) {
      EXPECT_EQ(all[id], row(static_cast<int>(id)));
      EXPECT_EQ(table.get(id), row(static_cast<int>(id)));
    }
    EXPECT_EQ(table.count("web"), n);
    EXPECT_EQ(table.fetch("web", 0, static_cast<int64_t>(n)).size(), n);
    EXPECT_FALSE(table.get(n).has_value());
  };
  // 14 rows: sealed [0,4) [4,8) [8,12), hot 12 and 13.
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
    {
      Table table(opts, SegmentKind::kAnomalies);
      for (int i = 0; i < 14; ++i) table.add("web", row(i), i);
      ASSERT_EQ(table.segment_count(), 3u);
      ASSERT_TRUE(table.truncate(n).ok());
      expect_prefix(table, n);
      EXPECT_EQ(table.segment_count(), cut.segments);
      EXPECT_EQ(table.add("web", row(static_cast<int>(n)),
                          static_cast<int64_t>(n)),
                n);
      ASSERT_TRUE(table.truncate(n).ok());
      ASSERT_TRUE(table.truncate(n + 5).ok());  // nothing past n to cut
      ASSERT_TRUE(table.flush().ok());
      expect_prefix(table, n);
    }
    Table reopened(opts, SegmentKind::kAnomalies);
    EXPECT_EQ(reopened.rejected_segments(), 0u);
    expect_prefix(reopened, n);
    EXPECT_EQ(reopened.add("web", row(static_cast<int>(n)),
                           static_cast<int64_t>(n)),
              n);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace loglens
