// Seeded differential proof that Anomaly Storage, an anomaly table with
// sealed segments on disk, answers exactly like a plain vector of anomalies.
//
// Each seed replays a random workload against an AnomalyStore with a tiny
// hot tier and an embedded reference that is just a vector: adds of messy
// anomalies (quotes, newlines and NULs in their text, the -1 timestamp,
// nested details), explicit and threshold-driven flushes, truncations
// that land anywhere, clean reopens (flush, then reopen) and hard kills
// (the hot rows die with the process). After every step that can move data
// the store must match the reference byte for byte (compared through
// to_json().dump()) on all(), by_type(), count_by_type(), window() and
// get(), and window()'s plan probe must account for exactly the rows it
// had to read.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/stores.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

// The types the workload draws from; kKeywordAlert is only ever queried.
const std::vector<AnomalyType> kTypes = {
    AnomalyType::kUnparsedLog, AnomalyType::kMissingEndState,
    AnomalyType::kDurationViolation, AnomalyType::kOpenStateEvicted,
    AnomalyType::kKeywordAlert};

Anomaly random_anomaly(Rng& rng) {
  static const std::vector<std::string> kSources = {"web", "db", "cache", ""};
  static const std::vector<std::string> kSeverities = {"low", "medium",
                                                       "high"};
  Anomaly a;
  a.type = kTypes[rng.below(kTypes.size() - 1)];
  a.severity = rng.pick(kSeverities);
  a.timestamp_ms = rng.chance(0.15) ? -1 : rng.range(0, 999);
  a.source = rng.pick(kSources);
  a.reason = "reason \"" + rng.ident(1 + rng.below(8)) + "\"\n";
  if (rng.chance(0.5)) a.event_id = rng.hex(8);
  a.automaton_id = static_cast<int>(rng.range(-1, 3));
  for (uint64_t i = rng.below(4); i > 0; --i) {
    std::string line = "log " + rng.ident(1 + rng.below(10));
    if (rng.chance(0.2)) line.push_back('\0');
    a.logs.push_back(std::move(line));
  }
  if (rng.chance(0.5)) a.details.set("count", Json(rng.range(0, 99)));
  if (rng.chance(0.3)) {
    a.details.set("bounds", Json(JsonArray{Json(rng.range(0, 9)),
                                           Json(rng.ident(3))}));
  }
  return a;
}

std::vector<std::string> dumps(const std::vector<Anomaly>& anomalies) {
  std::vector<std::string> out;
  for (const Anomaly& a : anomalies) out.push_back(a.to_json().dump());
  return out;
}

struct Reference {
  std::vector<Anomaly> rows;

  std::vector<Anomaly> window(AnomalyType type, int64_t from, int64_t to,
                              size_t begin, size_t end) const {
    std::vector<Anomaly> out;
    for (size_t i = begin; i < end; ++i) {
      const Anomaly& a = rows[i];
      if (a.type == type && a.timestamp_ms >= from && a.timestamp_ms <= to) {
        out.push_back(a);
      }
    }
    return out;
  }
  size_t count_type(AnomalyType type, size_t begin, size_t end) const {
    size_t n = 0;
    for (size_t i = begin; i < end; ++i) n += rows[i].type == type ? 1 : 0;
    return n;
  }
};

void check_window(const AnomalyStore& store, const Reference& ref, Rng& rng) {
  const AnomalyType type = rng.pick(kTypes);
  int64_t from = INT64_MIN;
  int64_t to = INT64_MAX;
  if (rng.chance(0.7)) {
    from = rng.range(-2, 999);
    to = rng.chance(0.1) ? from - 1 : from + rng.range(0, 400);
  }
  SCOPED_TRACE("window(" + std::string(anomaly_type_name(type)) + ", " +
               std::to_string(from) + ", " + std::to_string(to) + ")");
  QueryStats stats;
  const size_t total = ref.rows.size();
  const size_t sealed = total - store.hot_count();
  ASSERT_EQ(dumps(store.window(type, from, to, &stats)),
            dumps(ref.window(type, from, to, 0, total)));

  // The plan reads every sealed segment's entry, the type's postings in the
  // segments it keeps, and the hot rows in full only when one has the type.
  ASSERT_EQ(stats.segments_considered, store.segment_count());
  ASSERT_LE(stats.segments_pruned, stats.segments_considered);
  const size_t hot_scanned =
      ref.count_type(type, sealed, total) > 0 ? total - sealed : 0;
  ASSERT_GE(stats.docs_scanned, hot_scanned);
  const size_t sealed_scanned = stats.docs_scanned - hot_scanned;
  ASSERT_GE(sealed_scanned, ref.window(type, from, to, 0, sealed).size());
  ASSERT_LE(sealed_scanned, ref.count_type(type, 0, sealed));
  if (ref.count_type(type, 0, sealed) == 0) {
    ASSERT_EQ(stats.segments_pruned, stats.segments_considered);
  }
}

void check_all(const AnomalyStore& store, const Reference& ref, Rng& rng) {
  ASSERT_EQ(store.count(), ref.rows.size());
  ASSERT_EQ(dumps(store.all()), dumps(ref.rows));
  const AnomalyType type = rng.pick(kTypes);
  ASSERT_EQ(dumps(store.by_type(type)),
            dumps(ref.window(type, INT64_MIN, INT64_MAX, 0, ref.rows.size())));
  ASSERT_EQ(store.count_by_type(type),
            ref.count_type(type, 0, ref.rows.size()));
  for (int k = 0; k < 3; ++k) {
    const uint64_t id = rng.below(ref.rows.size() + 3);
    auto got = store.get(id);
    ASSERT_EQ(got.has_value(), id < ref.rows.size()) << "get(" << id << ")";
    if (got) {
      ASSERT_EQ(got->dump(), ref.rows[id].to_json().dump());
    }
  }
  check_window(store, ref, rng);
}

void run_seed(uint64_t seed) {
  Rng rng(seed);
  const std::string dir =
      (fs::temp_directory_path() /
       ("loglens_storage_diff_" + std::to_string(seed)))
          .string();
  fs::remove_all(dir);

  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 1 + rng.below(8);  // tiny: exercise many seals
  opts.name = "diff";

  auto store = std::make_unique<AnomalyStore>(opts);
  Reference ref;
  const size_t ops = 120;

  for (size_t op = 0; op < ops; ++op) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " op=" + std::to_string(op));
    const uint64_t roll = rng.below(100);
    if (roll < 55) {
      Anomaly a = random_anomaly(rng);
      store->add(a);
      ref.rows.push_back(std::move(a));
    } else if (roll < 75) {
      check_all(*store, ref, rng);
    } else if (roll < 82) {
      check_window(*store, ref, rng);
    } else if (roll < 90) {
      ASSERT_TRUE(store->flush().ok());
      ASSERT_EQ(store->hot_count(), 0u);
    } else if (roll < 95) {
      // The cut lands anywhere: the hot rows, a segment boundary, inside a
      // sealed segment, or past the end. The next add continues from n.
      const size_t n = rng.below(ref.rows.size() + 2);
      ASSERT_TRUE(store->truncate(n).ok());
      if (n < ref.rows.size()) ref.rows.resize(n);
      check_all(*store, ref, rng);
    } else if (roll < 98) {
      // Clean reopen: everything flushed survives.
      ASSERT_TRUE(store->flush().ok());
      store.reset();
      store = std::make_unique<AnomalyStore>(opts);
      ASSERT_EQ(store->rejected_segments(), 0u);
      check_all(*store, ref, rng);
    } else {
      // Hard kill: the hot rows die with the process; the reopen recovers
      // exactly the sealed prefix and ids extend densely from there.
      const size_t sealed = store->count() - store->hot_count();
      store.reset();
      ref.rows.resize(sealed);
      store = std::make_unique<AnomalyStore>(opts);
      ASSERT_EQ(store->rejected_segments(), 0u);
      ASSERT_EQ(store->hot_count(), 0u);
      check_all(*store, ref, rng);
    }
  }
  check_all(*store, ref, rng);

  store.reset();
  fs::remove_all(dir);
}

TEST(StorageDifferential, SixHundredSeeds) {
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    run_seed(seed);
    if (HasFatalFailure()) {
      FAIL() << "differential divergence at seed " << seed
             << " (rerun: run_seed(" << seed << "))";
    }
  }
}

}  // namespace
}  // namespace loglens
