#include "parser/log_parser.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "grok/set_matcher.h"
#include "logmine/discoverer.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class LogParserTest : public ::testing::Test {
 protected:
  LogParserTest() : pre_(std::move(Preprocessor::create({}).value())) {}

  std::vector<GrokPattern> model(std::initializer_list<const char*> texts) {
    std::vector<GrokPattern> out;
    int id = 1;
    for (const char* t : texts) {
      auto p = GrokPattern::parse(t);
      EXPECT_TRUE(p.ok()) << t;
      p->assign_field_ids(id++);
      out.push_back(std::move(p.value()));
    }
    return out;
  }

  Preprocessor pre_;
};

TEST_F(LogParserTest, ParsesPaperExample) {
  LogParser parser(
      model({"%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}"}),
      pre_.classifier());
  auto outcome = parser.parse(pre_.process("Connect DB 127.0.0.1 user abc123"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 1);
  EXPECT_EQ(outcome.log->to_json().dump(),
            R"({"_pattern_id":1,"Action":"Connect","Server":"127.0.0.1",)"
            R"("UserName":"abc123"})");
}

TEST_F(LogParserTest, UnparsedIsAnomaly) {
  LogParser parser(model({"%{WORD:w} ok"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("something else entirely here"));
  EXPECT_FALSE(outcome.log.has_value());
  EXPECT_EQ(parser.stats().unparsed, 1u);
}

TEST_F(LogParserTest, TimestampCarriedThrough) {
  LogParser parser(model({"%{DATETIME:t} boot %{WORD:w}"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("2016/02/23 09:00:31 boot ok"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->timestamp_ms, 1456218031000);
  EXPECT_EQ(outcome.log->to_json().get_string("_timestamp"),
            "2016/02/23 09:00:31.000");
}

TEST_F(LogParserTest, MostSpecificPatternWins) {
  // Both patterns can parse "login 42"; the WORD/NUMBER one is more
  // specific than NOTSPACE/NOTSPACE and must win regardless of model order.
  LogParser parser(model({"%{NOTSPACE:a} %{NOTSPACE:b}",
                          "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier());
  auto outcome = parser.parse(pre_.process("login 42"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 2);
}

TEST_F(LogParserTest, ShorterPatternBreaksGeneralityTies) {
  LogParser parser(model({"%{WORD:a} %{ANYDATA:rest}", "%{WORD:a}"}),
                   pre_.classifier());
  auto outcome = parser.parse(pre_.process("hello"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 2);
}

TEST_F(LogParserTest, IndexAmortizesSignatureComparisons) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}", "x %{WORD:c}",
                          "%{IP:d} in", "%{WORD:a} out %{NUMBER:b}"}),
                   pre_.classifier());
  for (int i = 0; i < 100; ++i) {
    auto outcome =
        parser.parse(pre_.process("login " + std::to_string(i)));
    ASSERT_TRUE(outcome.log.has_value());
  }
  // One group build (4 signature comparisons), then 99 index hits.
  EXPECT_EQ(parser.stats().groups_built, 1u);
  EXPECT_EQ(parser.stats().index_hits, 99u);
  EXPECT_EQ(parser.stats().signature_comparisons, 4u);
  EXPECT_EQ(parser.stats().match_attempts, 100u);
}

TEST_F(LogParserTest, EmptyCandidateGroupCachedToo) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(parser.parse(pre_.process("1 2 3")).log.has_value());
  }
  EXPECT_EQ(parser.stats().groups_built, 1u);
  EXPECT_EQ(parser.stats().index_hits, 9u);
  EXPECT_EQ(parser.stats().unparsed, 10u);
}

TEST_F(LogParserTest, DisabledIndexScansModelOrder) {
  LogParser parser(model({"%{NOTSPACE:a} %{NOTSPACE:b}",
                          "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier(), IndexMode::kDisabled);
  auto outcome = parser.parse(pre_.process("login 42"));
  ASSERT_TRUE(outcome.log.has_value());
  // Naive mode: first pattern in model order wins (Logstash-style), so the
  // general pattern shadows the specific one.
  EXPECT_EQ(outcome.log->pattern_id, 1);
  EXPECT_EQ(parser.stats().groups_built, 0u);
}

TEST_F(LogParserTest, WildcardPatternViaIndex) {
  LogParser parser(model({"start %{ANYDATA:body} end"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("start a b c end"));
  ASSERT_TRUE(outcome.log.has_value());
  JsonObject& f = outcome.log->fields;
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].second.as_string(), "a b c");
  EXPECT_TRUE(parser.parse(pre_.process("start end")).log.has_value());
  EXPECT_FALSE(parser.parse(pre_.process("start a b")).log.has_value());
}

TEST_F(LogParserTest, ResidentBytesGrowWithModel) {
  auto small = model({"%{WORD:a}"});
  auto large = model({"%{WORD:a} %{NUMBER:b} %{IP:c} lit1 lit2",
                      "%{WORD:x} %{ANYDATA:y} tail",
                      "alpha beta gamma %{NOTSPACE:z}"});
  LogParser p1(small, pre_.classifier());
  LogParser p2(large, pre_.classifier());
  EXPECT_GT(p2.resident_bytes(), p1.resident_bytes());
}

TEST_F(LogParserTest, EmptyModelParsesNothing) {
  LogParser parser({}, pre_.classifier());
  EXPECT_FALSE(parser.parse(pre_.process("anything")).log.has_value());
  EXPECT_EQ(parser.pattern_count(), 0u);
}

TEST_F(LogParserTest, IndexEvictsLeastRecentlyUsedSignature) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier(),
                   IndexMode::kEnabled, /*index_capacity=*/2);
  EXPECT_EQ(parser.index_capacity(), 2u);
  // Three distinct signatures against capacity 2: the third insert evicts
  // the least recently used (the first).
  parser.parse(pre_.process("login 42"));        // sig A
  parser.parse(pre_.process("login login"));     // sig B
  parser.parse(pre_.process("login 42 extra"));  // sig C -> evicts A
  EXPECT_EQ(parser.index_size(), 2u);
  EXPECT_EQ(parser.stats().index_evictions, 1u);
  // A was evicted: seeing it again rebuilds the group (and evicts B).
  parser.parse(pre_.process("login 43"));
  EXPECT_EQ(parser.stats().groups_built, 4u);
  EXPECT_EQ(parser.stats().index_hits, 0u);
  EXPECT_EQ(parser.stats().index_evictions, 2u);
}

TEST_F(LogParserTest, IndexHitRefreshesLruPosition) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier(),
                   IndexMode::kEnabled, /*index_capacity=*/2);
  parser.parse(pre_.process("login 42"));        // sig A
  parser.parse(pre_.process("login login"));     // sig B
  parser.parse(pre_.process("login 43"));        // hit A -> A becomes MRU
  parser.parse(pre_.process("login 42 extra"));  // sig C -> evicts B, not A
  EXPECT_EQ(parser.stats().index_evictions, 1u);
  parser.parse(pre_.process("login 44"));  // A still cached
  EXPECT_EQ(parser.stats().index_hits, 2u);
  EXPECT_EQ(parser.stats().groups_built, 3u);
}

TEST_F(LogParserTest, EvictedGroupStillParsesCorrectly) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}", "%{WORD:a} %{WORD:b}"}),
                   pre_.classifier(), IndexMode::kEnabled,
                   /*index_capacity=*/1);
  for (int i = 0; i < 20; ++i) {
    // Alternate signatures so every parse evicts the other's entry.
    auto a = parser.parse(pre_.process("login " + std::to_string(i)));
    ASSERT_TRUE(a.log.has_value());
    EXPECT_EQ(a.log->pattern_id, 1);
    auto b = parser.parse(pre_.process("login out"));
    ASSERT_TRUE(b.log.has_value());
    EXPECT_EQ(b.log->pattern_id, 2);
  }
  EXPECT_EQ(parser.index_size(), 1u);
  EXPECT_EQ(parser.stats().index_evictions, 39u);
}

TEST_F(LogParserTest, DisabledIndexCountsSignatureComparisons) {
  LogParser parser(model({"%{IP:d} in", "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier(), IndexMode::kDisabled);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(parser.parse(pre_.process("login 42")).log.has_value());
  }
  // Every log pays the full model scan up to its match (2 patterns here),
  // the cost the signature index amortizes away.
  EXPECT_EQ(parser.stats().signature_comparisons, 20u);
  EXPECT_EQ(parser.stats().match_attempts, 20u);
}

TEST_F(LogParserTest, ParseIntoMatchesParseOutput) {
  LogParser a(model({"%{WORD:Action} DB %{IP:Server}"}), pre_.classifier());
  LogParser b(model({"%{WORD:Action} DB %{IP:Server}"}), pre_.classifier());
  TokenizedLog log = pre_.process("Connect DB 127.0.0.1");
  auto outcome = a.parse(log);
  ASSERT_TRUE(outcome.log.has_value());
  ParsedLog parsed;
  ASSERT_TRUE(b.parse_into(log, parsed));
  EXPECT_EQ(outcome.log->to_json().dump(), parsed.to_json().dump());
  EXPECT_EQ(parsed.raw, "Connect DB 127.0.0.1");

  // The rvalue overload steals raw instead of copying.
  TokenizedLog moved = pre_.process("Connect DB 10.1.1.1");
  ASSERT_TRUE(b.parse_into(std::move(moved), parsed));
  EXPECT_EQ(parsed.raw, "Connect DB 10.1.1.1");
}

TEST_F(LogParserTest, ResidentBytesGrowWithIndexEntries) {
  auto m = model({"%{WORD:a} %{NUMBER:b}"});
  LogParser parser(m, pre_.classifier());
  const size_t empty_index = parser.resident_bytes();
  for (int i = 0; i < 32; ++i) {
    std::string line = "login 1";
    for (int j = 0; j < i; ++j) line += " extra";
    parser.parse(pre_.process(line));
  }
  // 32 distinct signatures cached: the index accounting (bucket array +
  // per-entry nodes + owned signature/group storage) must be visible.
  EXPECT_GT(parser.resident_bytes(), empty_index + 32 * sizeof(void*));
}

// The match route: a group is scanned unless it holds many more patterns
// than its logs have tokens; only then does the whole-model token walk pay.
std::string svc_name(size_t i) {
  std::string name = "svc";
  name += static_cast<char>('a' + i / 676 % 26);
  name += static_cast<char>('a' + i / 26 % 26);
  name += static_cast<char>('a' + i % 26);
  return name;
}

TEST_F(LogParserTest, SharedSignatureGroupTakesTheTokenWalk) {
  // 200 patterns, one 5-token signature: every log's group is the whole
  // model, 40 patterns per log token.
  std::vector<GrokPattern> m;
  for (size_t i = 0; i < 200; ++i) {
    auto p = GrokPattern::parse(svc_name(i) +
                                " worker %{WORD:op} %{NUMBER:n} done");
    ASSERT_TRUE(p.ok());
    p->assign_field_ids(static_cast<int>(i) + 1);
    m.push_back(std::move(p.value()));
  }
  LogParser parser(m, pre_.classifier());

  // The token matcher is compiled by the first walking log, not before.
  const size_t before = parser.resident_bytes();
  ASSERT_TRUE(parser.parse(pre_.process("svcaaa worker start 0 done")).log);
  EXPECT_GE(parser.resident_bytes() - before,
            GrokSetMatcher::compile_tokens(m).resident_bytes());

  parser.reset_stats();
  for (size_t i = 0; i < 50; ++i) {
    auto outcome = parser.parse(pre_.process(
        svc_name(i * 7 % 200) + " worker start " + std::to_string(i) +
        " done"));
    ASSERT_TRUE(outcome.log);
    EXPECT_EQ(outcome.log->pattern_id, static_cast<int>(i * 7 % 200) + 1);
  }
  EXPECT_EQ(parser.stats().index_hits, 50u);
  EXPECT_EQ(parser.stats().set_walks, parser.stats().index_hits);
  EXPECT_EQ(parser.stats().match_attempts, 50u);  // one capture pass each
  EXPECT_EQ(parser.stats().set_fallbacks, 0u);
}

TEST_F(LogParserTest, D4GroupsAreScannedAndMatchTheLinearParser) {
  // D4's groups hold 27-56 patterns, never more than ~6 per log token:
  // under the walk's break-even, so every hit scans.
  Dataset d4 = make_d4(/*scale=*/0.01);
  std::vector<TokenizedLog> training;
  for (const auto& line : d4.training) training.push_back(pre_.process(line));
  PatternDiscoverer discoverer(recommended_discovery("D4"),
                               pre_.classifier());
  const std::vector<GrokPattern> m = discoverer.discover(training);
  ASSERT_GT(m.size(), 1000u);

  LogParser routed(m, pre_.classifier());
  LogParser forced(m, pre_.classifier());
  forced.force_set_walk(true);
  LogParser linear(m, pre_.classifier(), IndexMode::kEnabled,
                   LogParser::kDefaultIndexCapacity, SetMatchMode::kDisabled);
  for (const auto& line : d4.testing) {
    const TokenizedLog log = pre_.process(line);
    auto a = routed.parse(log);
    auto b = linear.parse(log);
    auto c = forced.parse(log);
    ASSERT_EQ(a.log.has_value(), b.log.has_value()) << line;
    ASSERT_EQ(c.log.has_value(), b.log.has_value()) << line;
    if (a.log) {
      EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << line;
      EXPECT_EQ(c.log->to_json().dump(), b.log->to_json().dump()) << line;
    }
  }
  EXPECT_GT(routed.stats().index_hits, 0u);
  EXPECT_EQ(routed.stats().set_walks, 0u);
  EXPECT_EQ(routed.stats().match_attempts, linear.stats().match_attempts);
  EXPECT_EQ(forced.stats().set_walks, forced.stats().logs);

  // No walk, no token matcher: the forced parser holds the same index plus
  // exactly the compiled token matcher.
  EXPECT_EQ(forced.resident_bytes() - routed.resident_bytes(),
            GrokSetMatcher::compile_tokens(m).resident_bytes());
}

}  // namespace
}  // namespace loglens
