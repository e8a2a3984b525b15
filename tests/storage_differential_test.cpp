// Seeded differential proof that the tiered segment engine is byte-identical
// to a plain in-memory store (PR 5 / PR 8 style).
//
// Each seed replays a random workload — inserts of messy documents
// (duplicate keys, doubles, missing fields, non-object values under keys),
// explicit and threshold-driven flushes, compactions, queries with random
// clause mixes and limits, JSONL save/load round trips, truncations, and
// hard kills that drop the hot segment and reopen over the surviving
// segment files —
// simultaneously against the DocumentStore under test and an embedded
// reference that is just a vector plus the documented predicate. Every
// query/count/get result must match the reference byte-for-byte (compared
// through dump()), ids must stay stable across flush, compaction and
// truncation, and a kill must recover exactly the flushed prefix.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/document_store.h"

namespace loglens {
namespace {

namespace fs = std::filesystem;

// The documented query semantics, restated independently of the engine.
bool ref_matches(const Json& doc, const Query& q) {
  for (const auto& c : q.clauses) {
    const Json* v = doc.find(c.field);
    if (v == nullptr) return false;
    if (c.kind == QueryClause::Kind::kTerm) {
      if (!v->is_string() || v->as_string() != c.term) return false;
    } else {
      if (!v->is_number()) return false;
      const int64_t n = v->as_int();
      if (n < c.min || n > c.max) return false;
    }
  }
  return true;
}

// The seed-era store, reduced to its essence: a vector in insertion order.
struct ReferenceStore {
  std::vector<Json> docs;

  uint64_t insert(Json d) {
    docs.push_back(std::move(d));
    return docs.size() - 1;
  }
  std::optional<Json> get(uint64_t id) const {
    if (id >= docs.size()) return std::nullopt;
    return docs[id];
  }
  std::vector<Json> query(const Query& q) const {
    std::vector<Json> out;
    for (const auto& d : docs) {
      if (out.size() >= q.limit) break;
      if (ref_matches(d, q)) out.push_back(d);
    }
    return out;
  }
  size_t count(const Query& q) const {
    size_t n = 0;
    for (const auto& d : docs) {
      if (ref_matches(d, q)) ++n;
    }
    return n;
  }
  // Keeps the first n documents: what truncate(n) and a hard kill (which
  // loses everything after the flushed prefix) leave.
  void truncate(size_t n) {
    if (n < docs.size()) docs.resize(n);
  }
};

Json random_doc(Rng& rng) {
  static const std::vector<std::string> kSources = {"web", "db", "cache",
                                                    "auth", "edge"};
  static const std::vector<std::string> kLevels = {"info", "warn", "error"};
  JsonObject o;
  if (rng.chance(0.9)) {
    o.emplace_back("source", Json(rng.pick(kSources)));
  }
  if (rng.chance(0.85)) {
    o.emplace_back("ts", Json(rng.range(0, 999)));
  } else if (rng.chance(0.3)) {
    o.emplace_back("ts", Json(rng.uniform() * 1000.0));  // double timestamp
  }
  if (rng.chance(0.5)) {
    o.emplace_back("level", Json(rng.pick(kLevels)));
  }
  if (rng.chance(0.15)) {
    // Duplicate key: only the first occurrence is queryable (Json::find).
    o.emplace_back("source", Json(rng.pick(kSources)));
  }
  if (rng.chance(0.1)) {
    o.emplace_back("tags", Json(JsonArray{Json("a"), Json(rng.range(0, 9))}));
  }
  if (rng.chance(0.2)) {
    o.emplace_back("msg", Json(rng.ident(1 + rng.below(12))));
  }
  return Json(std::move(o));
}

Query random_query(Rng& rng) {
  static const std::vector<std::string> kSources = {"web", "db", "cache",
                                                    "auth", "edge", "nope"};
  static const std::vector<std::string> kLevels = {"info", "warn", "error",
                                                   "fatal"};
  Query q;
  const size_t n_clauses = rng.below(4);
  for (size_t i = 0; i < n_clauses; ++i) {
    switch (rng.below(3)) {
      case 0:
        q.clauses.push_back(QueryClause::Term("source", rng.pick(kSources)));
        break;
      case 1:
        q.clauses.push_back(QueryClause::Term("level", rng.pick(kLevels)));
        break;
      default: {
        const int64_t lo = rng.range(-100, 999);
        q.clauses.push_back(
            QueryClause::Range("ts", lo, lo + rng.range(0, 400)));
        break;
      }
    }
  }
  if (rng.chance(0.3)) q.limit = rng.below(20);
  return q;
}

std::string dump_all(const std::vector<Json>& docs) {
  std::string out;
  for (const auto& d : docs) {
    d.dump_to(out);
    out.push_back('\n');
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void check_equivalent(uint64_t seed, size_t op, const DocumentStore& store,
                      const ReferenceStore& ref, const Query& q) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " op=" + std::to_string(op));
  auto got = store.query(q);
  auto want = ref.query(q);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(dump_all(got), dump_all(want));
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
  opts.hot_max_docs = 1 + rng.below(8);  // tiny: exercise many flushes
  opts.auto_compact = rng.chance(0.5);
  opts.compact_min_segments = 2 + rng.below(3);
  opts.compact_max_docs = 1u << (4 + rng.below(8));
  opts.name = "diff";

  auto store = std::make_unique<DocumentStore>(opts);
  ReferenceStore ref;
  const size_t ops = 120;

  for (size_t op = 0; op < ops; ++op) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " op=" + std::to_string(op));
    const uint64_t roll = rng.below(100);
    if (roll < 50) {
      Json d = random_doc(rng);
      Json copy = d;
      const uint64_t got = store->insert(std::move(d));
      const uint64_t want = ref.insert(std::move(copy));
      ASSERT_EQ(got, want);  // dense, stable ids
    } else if (roll < 65) {
      check_equivalent(seed, op, *store, ref, random_query(rng));
    } else if (roll < 73) {
      const Query q = random_query(rng);
      ASSERT_EQ(store->count(q), ref.count(q));
    } else if (roll < 81) {
      // get: in-range and out-of-range ids, spanning sealed + hot.
      const uint64_t id = rng.below(ref.docs.size() + 3);
      auto got = store->get(id);
      auto want = ref.get(id);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(got->dump(), want->dump());
      }
    } else if (roll < 88) {
      ASSERT_TRUE(store->flush().ok());
    } else if (roll < 93) {
      ASSERT_TRUE(store->compact().ok());
    } else if (roll < 95) {
      // JSONL round trip: the tiered save must be byte-identical to the
      // reference dump, and load must rebuild an equivalent store.
      const std::string path = dir + "/roundtrip.jsonl";
      ASSERT_TRUE(store->save_jsonl(path).ok());
      ASSERT_EQ(read_file(path), dump_all(ref.docs));
      DocumentStore reloaded;  // in-memory
      ASSERT_TRUE(reloaded.load_jsonl(path).ok());
      ASSERT_EQ(reloaded.size(), ref.docs.size());
      std::remove(path.c_str());
    } else if (roll < 98) {
      // Truncation: the cut lands anywhere (hot tier, segment boundary,
      // inside a sealed or merged segment, or past the end). Afterwards the
      // store must answer every query as a store fed only the first n
      // documents, and the next insert continues the ids from n.
      const size_t n = rng.below(ref.docs.size() + 2);
      ASSERT_TRUE(store->truncate(n).ok());
      ref.truncate(n);
      ASSERT_EQ(store->size(), ref.docs.size());
      check_equivalent(seed, op, *store, ref, Query{});
      check_equivalent(seed, op, *store, ref, random_query(rng));
    } else {
      // Hard kill: the hot segment dies with the process; reopening over
      // the directory must recover exactly the flushed prefix, and ids
      // must keep extending densely from there.
      const size_t flushed = store->size() - store->hot_count();
      store.reset();
      ref.truncate(flushed);
      store = std::make_unique<DocumentStore>(opts);
      ASSERT_EQ(store->size(), flushed);
      ASSERT_EQ(store->hot_count(), 0u);
    }
  }

  // Final sweep: full equality plus a battery of fixed probes.
  Query all;
  check_equivalent(seed, ops, *store, ref, all);
  ASSERT_EQ(store->size(), ref.docs.size());
  for (const char* src : {"web", "db", "nope"}) {
    Query q;
    q.clauses.push_back(QueryClause::Term("source", src));
    q.clauses.push_back(QueryClause::Range("ts", 200, 700));
    check_equivalent(seed, ops + 1, *store, ref, q);
    ASSERT_EQ(store->count(q), ref.count(q));
  }

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
