#include "storage/document_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "storage/stores.h"

namespace loglens {
namespace {

Json doc(const char* source, int64_t ts, const char* msg) {
  JsonObject o;
  o.emplace_back("source", Json(source));
  o.emplace_back("ts", Json(ts));
  o.emplace_back("msg", Json(msg));
  return Json(std::move(o));
}

TEST(DocumentStore, InsertAndGet) {
  DocumentStore store;
  uint64_t id = store.insert(doc("a", 1, "hello"));
  EXPECT_EQ(store.size(), 1u);
  auto got = store.get(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->get_string("msg"), "hello");
  EXPECT_FALSE(store.get(999).has_value());
}

TEST(DocumentStore, TermQueryUsesIndex) {
  DocumentStore store;
  for (int i = 0; i < 100; ++i) {
    store.insert(doc(i % 2 == 0 ? "even" : "odd", i, "x"));
  }
  Query q;
  q.clauses.push_back(QueryClause::Term("source", "even"));
  EXPECT_EQ(store.query(q).size(), 50u);
  EXPECT_EQ(store.count(q), 50u);
  q.clauses[0].term = "missing";
  EXPECT_TRUE(store.query(q).empty());
}

TEST(DocumentStore, RangeQuery) {
  DocumentStore store;
  for (int i = 0; i < 20; ++i) store.insert(doc("s", i * 10, "x"));
  Query q;
  q.clauses.push_back(QueryClause::Range("ts", 50, 100));
  auto hits = store.query(q);
  EXPECT_EQ(hits.size(), 6u);  // 50,60,...,100 inclusive
}

TEST(DocumentStore, ConjunctionOfClauses) {
  DocumentStore store;
  store.insert(doc("a", 5, "x"));
  store.insert(doc("a", 50, "x"));
  store.insert(doc("b", 5, "x"));
  Query q;
  q.clauses.push_back(QueryClause::Term("source", "a"));
  q.clauses.push_back(QueryClause::Range("ts", 0, 10));
  auto hits = store.query(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].get_int("ts"), 5);
}

TEST(DocumentStore, LimitRespected) {
  DocumentStore store;
  for (int i = 0; i < 10; ++i) store.insert(doc("s", i, "x"));
  Query q;
  q.limit = 3;
  EXPECT_EQ(store.query(q).size(), 3u);
}

TEST(DocumentStore, MissingFieldNeverMatches) {
  DocumentStore store;
  store.insert(Json(JsonObject{{"other", Json("v")}}));
  Query q;
  q.clauses.push_back(QueryClause::Range("ts", 0, 100));
  EXPECT_TRUE(store.query(q).empty());
}

TEST(DocumentStore, JsonlRoundTrip) {
  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "loglens_store_test.jsonl").string();
  {
    DocumentStore store;
    store.insert(doc("a", 1, "first"));
    store.insert(doc("b", 2, "second \"quoted\""));
    ASSERT_TRUE(store.save_jsonl(path).ok());
  }
  DocumentStore loaded;
  ASSERT_TRUE(loaded.load_jsonl(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  Query q;
  q.clauses.push_back(QueryClause::Term("source", "b"));
  auto hits = loaded.query(q);
  ASSERT_EQ(hits.size(), 1u);  // index rebuilt on load
  EXPECT_EQ(hits[0].get_string("msg"), "second \"quoted\"");
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.load_jsonl("/nonexistent/nowhere.jsonl").ok());
}

TEST(DocumentStore, LoadJsonlRejectsNonObjectLine) {
  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "loglens_store_badline.jsonl").string();
  {
    std::ofstream out(path);
    out << "{\"source\":\"a\",\"ts\":1}\n";
    out << "[1,2,3]\n";  // an array is not a queryable document
    out << "{\"source\":\"b\",\"ts\":2}\n";
  }
  DocumentStore store;
  Status s = store.load_jsonl(path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":2:"), std::string::npos)
      << "error should name the offending line: " << s.message();
  EXPECT_NE(s.message().find("not a JSON object"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

// Probe for the sealed-segment posting-list planner: a conjunction must be
// driven from the *smallest* posting list. With 900 "hot" docs and 4 "rare" docs,
// driving from the rare list scans ~4 candidates; driving from the common
// list would scan ~900. QueryStats::docs_scanned makes the choice visible.
TEST(DocumentStore, QueryScansSmallestPostingList) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "loglens_store_planner").string();
  fs::remove_all(dir);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 0;  // manual flush: one sealed segment
  opts.auto_compact = false;
  DocumentStore store(opts);
  for (int i = 0; i < 900; ++i) {
    JsonObject o;
    o.emplace_back("source", Json("common"));
    o.emplace_back("level", Json(i < 4 ? "rare" : "noise"));
    store.insert(Json(std::move(o)));
  }
  ASSERT_TRUE(store.flush().ok());
  ASSERT_EQ(store.segment_count(), 1u);

  Query q;
  q.clauses.push_back(QueryClause::Term("source", "common"));  // 900 docs
  q.clauses.push_back(QueryClause::Term("level", "rare"));     // 4 docs
  QueryStats stats;
  EXPECT_EQ(store.count(q, &stats), 4u);
  EXPECT_EQ(stats.docs_scanned, 4u)
      << "planner must drive from the smallest posting list";

  // The hot tier keeps no term index: the same query scans every document.
  DocumentStore hot;
  for (int i = 0; i < 900; ++i) {
    JsonObject o;
    o.emplace_back("source", Json("common"));
    o.emplace_back("level", Json(i < 4 ? "rare" : "noise"));
    hot.insert(Json(std::move(o)));
  }
  stats = QueryStats{};
  EXPECT_EQ(hot.count(q, &stats), 4u);
  EXPECT_EQ(stats.docs_scanned, 900u);
  fs::remove_all(dir);
}

// Basic tiered round trip: inserts spill to sealed segments at the hot
// threshold, every id survives flush and reopen, and queries span both
// tiers transparently.
TEST(DocumentStore, TieredFlushAndReopen) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "loglens_store_tiered").string();
  fs::remove_all(dir);
  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = 4;
  opts.auto_compact = false;
  {
    DocumentStore store(opts);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(store.insert(doc(i % 2 == 0 ? "a" : "b", i, "m")),
                static_cast<uint64_t>(i));
    }
    EXPECT_EQ(store.segment_count(), 2u);  // 8 sealed, 2 hot
    EXPECT_EQ(store.hot_count(), 2u);
    Query q;
    q.clauses.push_back(QueryClause::Term("source", "a"));
    EXPECT_EQ(store.count(q), 5u);  // spans sealed + hot
    ASSERT_TRUE(store.flush().ok());
    EXPECT_EQ(store.hot_count(), 0u);
  }
  DocumentStore reopened(opts);
  EXPECT_EQ(reopened.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto got = reopened.get(static_cast<uint64_t>(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->find("ts")->as_int(), i);
  }
  EXPECT_EQ(reopened.insert(doc("c", 10, "m")), 10u);  // ids continue
  fs::remove_all(dir);
}

TEST(LogStore, FetchBySourceAndTime) {
  LogStore store;
  store.add("web", "line1", 100);
  store.add("web", "line2", 200);
  store.add("db", "line3", 150);
  EXPECT_EQ(store.size(), 3u);
  auto web = store.fetch("web");
  ASSERT_EQ(web.size(), 2u);
  EXPECT_EQ(web[0], "line1");
  auto ranged = store.fetch("web", 150, 300);
  ASSERT_EQ(ranged.size(), 1u);
  EXPECT_EQ(ranged[0], "line2");
  EXPECT_TRUE(store.fetch("missing").empty());
  EXPECT_EQ(store.fetch("web", INT64_MIN, INT64_MAX, 1).size(), 1u);
}

}  // namespace
}  // namespace loglens
