// Seeded differential proof for the log archive: LogStore's append-only
// table against an in-test reference that keeps the archive's documented
// semantics — rows in insertion order, an exact source match, an inclusive
// `ts` range, at most `limit` lines.
//
// Each seed replays random adds over a few sources (the empty source
// included; `ts` drawn with repeats and the agents' -1) and random fetches,
// in memory and disk-backed with a hot tier of 8 rows that is reopened
// mid-run. A reopen after a flush keeps every row; a reopen without one (a
// kill) keeps the sealed prefix. The disk-backed run is repeated with torn
// writes armed at the segment flush site, and a JSON-document segment
// planted in the archive's directory must be rejected, counted, and never
// read back as lines.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "storage/document_store.h"
#include "storage/log_store.h"
#include "storage/segment.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

struct RefRow {
  std::string source;
  std::string raw;
  int64_t ts;
};

struct ReferenceArchive {
  std::vector<RefRow> rows;

  std::vector<std::string> fetch(const std::string& source, int64_t from,
                                 int64_t to, size_t limit) const {
    std::vector<std::string> out;
    for (const RefRow& r : rows) {
      if (out.size() >= limit) break;
      if (r.source == source && r.ts >= from && r.ts <= to) {
        out.push_back(r.raw);
      }
    }
    return out;
  }
  std::set<std::string> sources() const {
    std::set<std::string> out;
    for (const RefRow& r : rows) {
      if (!r.source.empty()) out.insert(r.source);
    }
    return out;
  }
};

const std::vector<std::string> kSources = {"web", "db", "auth", ""};

// Lines of every shape the archive must return byte for byte: empty, short,
// a few KB, and holding quotes, newlines and NUL bytes.
std::string random_line(Rng& rng, int i) {
  std::string s = "line " + std::to_string(i) + " ";
  switch (rng.below(6)) {
    case 0:
      return "";
    case 1:
      s += "\"quoted\" \\ back\nslash";
      s.push_back('\0');
      s += "nul";
      return s;
    case 2:
      s.append(static_cast<size_t>(rng.below(4000)), 'x');
      return s;
    default:
      s += rng.hex(static_cast<size_t>(rng.below(40)));
      return s;
  }
}

int64_t random_ts(Rng& rng) {
  return rng.chance(0.3) ? -1 : rng.range(0, 12);
}

void check_same(const LogStore& store, const ReferenceArchive& ref, Rng& rng,
                const std::string& where) {
  ASSERT_EQ(store.size(), ref.rows.size()) << where;
  ASSERT_EQ(store.sources(), ref.sources()) << where;
  std::vector<std::string> sources = kSources;
  sources.push_back("missing");
  for (int q = 0; q < 4; ++q) {
    const std::string& source = rng.pick(sources);
    int64_t from = INT64_MIN;
    int64_t to = INT64_MAX;
    if (rng.chance(0.6)) {
      from = rng.range(-2, 13);
      to = rng.chance(0.2) ? from - 1 : rng.range(from, 14);
    }
    const size_t limits[] = {0, 1, 3, SIZE_MAX};
    const size_t limit = limits[rng.below(4)];
    ASSERT_EQ(store.fetch(source, from, to, limit),
              ref.fetch(source, from, to, limit))
        << where << ": fetch(\"" << source << "\", " << from << ", " << to
        << ", " << limit << ")";
  }
  ASSERT_EQ(store.fetch("web"), ref.fetch("web", INT64_MIN, INT64_MAX,
                                          SIZE_MAX))
      << where;
}

std::string test_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("loglens_log_store_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

// One seeded run. `dir` empty runs in memory; otherwise the archive seals
// every 8 rows and is reopened at random points.
void run_seed(uint64_t seed, const std::string& dir, FaultInjector* faults,
              MetricsRegistry* metrics) {
  Rng rng(seed);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 8;
  opts.name = "logs";
  opts.faults = faults;
  opts.metrics = metrics;
  auto store = std::make_unique<LogStore>(opts);
  ReferenceArchive ref;
  const std::string where = "seed " + std::to_string(seed);

  for (int op = 0; op < 400; ++op) {
    const uint64_t roll = rng.below(100);
    if (roll < 70) {
      RefRow row{rng.pick(kSources), random_line(rng, op), random_ts(rng)};
      store->add(row.source, row.raw, row.ts);
      ref.rows.push_back(std::move(row));
      if (!dir.empty() && faults == nullptr) {
        // Without faults every 8th row seals.
        ASSERT_LT(store->hot_count(), 8u) << where;
      }
    } else if (roll < 97 || dir.empty()) {
      check_same(*store, ref, rng, where + " op " + std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Reopen: after a flush nothing is lost; a kill (or a flush the
      // injector tore) keeps only the sealed prefix.
      const bool flushed = rng.chance(0.5) && store->flush().ok();
      const size_t sealed = store->size() - store->hot_count();
      ASSERT_TRUE(!flushed || sealed == ref.rows.size()) << where;
      ref.rows.resize(sealed);
      store.reset();
      store = std::make_unique<LogStore>(opts);
      check_same(*store, ref, rng, where + " reopened at op " +
                                       std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  check_same(*store, ref, rng, where + " end");
}

TEST(LogStoreDifferential, InMemoryMatchesReference) {
  MetricsRegistry metrics;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    run_seed(seed, "", nullptr, &metrics);
    if (HasFatalFailure()) return;
  }
}

TEST(LogStoreDifferential, DiskBackedReopenedMatchesReference) {
  MetricsRegistry metrics;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string dir = test_dir("disk");
    run_seed(seed, dir, nullptr, &metrics);
    fs::remove_all(dir);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(metrics.counter("loglens_storage_flushes_total", {{"store", "logs"}})
                .value(),
            0u);
  // Every sealed log segment is already full: the archive never compacts.
  EXPECT_EQ(
      metrics.counter("loglens_storage_compactions_total", {{"store", "logs"}})
          .value(),
      0u);
}

TEST(LogStoreDifferential, TornFlushesMatchReference) {
  MetricsRegistry metrics;
  FaultInjector faults(11, &metrics);
  FaultSpec torn;
  torn.action = FaultAction::kTornWrite;
  torn.probability = 0.3;
  faults.arm(kFaultSiteSegmentFlush, torn);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string dir = test_dir("torn");
    run_seed(seed, dir, &faults, &metrics);
    fs::remove_all(dir);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(faults.triggered(kFaultSiteSegmentFlush), 0u);
}

// Lines that straddle text blocks read back whole, from the hot rows and
// from a sealed segment whose rows span several blocks.
TEST(LogStoreDifferential, LinesCrossTextBlocks) {
  MetricsRegistry metrics;
  const std::string dir = test_dir("blocks");
  for (const std::string& d : {std::string(), dir}) {
    DocumentStoreOptions opts;
    opts.dir = d;
    opts.hot_max_docs = 3000;
    opts.metrics = &metrics;
    LogStore store(opts);
    ReferenceArchive ref;
    // 777 does not divide the block size, so lines straddle every boundary.
    const size_t rows = 3 * LogStore::kTextBlockBytes / 777 + 100;
    for (size_t i = 0; i < rows; ++i) {
      std::string raw = std::to_string(i) + ":";
      raw.resize(777, static_cast<char>('a' + i % 26));
      store.add("web", raw, static_cast<int64_t>(i));
      ref.rows.push_back({"web", std::move(raw), static_cast<int64_t>(i)});
    }
    EXPECT_EQ(store.segment_count(), d.empty() ? 0u : 1u);
    EXPECT_EQ(store.fetch("web"), ref.fetch("web", INT64_MIN, INT64_MAX,
                                            SIZE_MAX));
    EXPECT_EQ(store.fetch("web", 1300, 3100, 5),
              ref.fetch("web", 1300, 3100, 5));
  }
  fs::remove_all(dir);
}

// A segment of the other kind in the directory is refused at open, counted,
// and never read: a JSON-document file shaped like log rows does not come
// back as lines, and a log segment does not come back as documents.
TEST(LogStoreDifferential, ForeignSegmentsAreRejected) {
  MetricsRegistry metrics;
  const std::string dir = test_dir("foreign");
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 8;
  opts.name = "logs";
  opts.metrics = &metrics;
  ReferenceArchive ref;
  {
    LogStore store(opts);
    for (int i = 0; i < 20; ++i) {
      RefRow row{i % 3 == 0 ? "db" : "web", "row " + std::to_string(i), i};
      store.add(row.source, row.raw, row.ts);
      ref.rows.push_back(std::move(row));
    }
    ASSERT_TRUE(store.flush().ok());
    ASSERT_EQ(store.segment_count(), 3u);
  }
  std::vector<Json> planted;
  for (int i = 0; i < 4; ++i) {
    JsonObject doc;
    doc.emplace_back("source", Json("web"));
    doc.emplace_back("raw", Json("planted " + std::to_string(i)));
    doc.emplace_back("ts", Json(int64_t{i}));
    planted.emplace_back(std::move(doc));
  }
  ASSERT_TRUE(write_segment_file(segment_file_path(dir, 20),
                                 encode_segment(20, planted))
                  .ok());

  LogStore reopened(opts);
  EXPECT_EQ(reopened.rejected_segments(), 1u);
  EXPECT_EQ(metrics
                .counter("loglens_storage_segments_rejected_total",
                         {{"store", "logs"}})
                .value(),
            1u);
  EXPECT_EQ(reopened.size(), 20u);
  Rng rng(5);
  check_same(reopened, ref, rng, "after planting");
  for (const std::string& line : reopened.fetch("web")) {
    EXPECT_EQ(line.find("planted"), std::string::npos) << line;
  }
  EXPECT_TRUE(fs::exists(segment_file_path(dir, 20)));  // kept for forensics

  // The other direction: a document store refuses the archive's segments.
  DocumentStoreOptions doc_opts = opts;
  doc_opts.name = "docs";
  DocumentStore docs(doc_opts);
  EXPECT_EQ(docs.rejected_segments(), 3u);  // the three log segments
  EXPECT_EQ(docs.segment_count(), 1u);      // the planted document segment
  fs::remove_all(dir);
}

}  // namespace
}  // namespace loglens
