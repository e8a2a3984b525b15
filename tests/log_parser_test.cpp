#include "parser/log_parser.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "logmine/discoverer.h"
#include "parser_reference.h"
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

  // Parses `line` with `parser` and with the full-model scan, expects both
  // to pick `pattern_id` (0: neither parses) with the same to_json, and
  // returns the parser's match attempts for the line.
  uint64_t expect_reference(LogParser& parser, ReferenceParser& reference,
                            const std::string& line, int pattern_id) {
    const TokenizedLog log = pre_.process(line);
    const uint64_t before = parser.stats().match_attempts;
    auto a = parser.parse(log);
    auto b = reference.parse(log);
    EXPECT_EQ(a.log.has_value(), pattern_id != 0) << line;
    EXPECT_EQ(b.log.has_value(), pattern_id != 0) << line;
    if (a.log && b.log) {
      EXPECT_EQ(a.log->pattern_id, pattern_id) << line;
      EXPECT_EQ(b.log->pattern_id, pattern_id) << line;
      EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << line;
    }
    return parser.stats().match_attempts - before;
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
                   /*index_capacity=*/2);
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
                   /*index_capacity=*/2);
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
                   pre_.classifier(), /*index_capacity=*/1);
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

// A group of patterns that share a signature is keyed by the literal at one
// log position, so a log attempts only the patterns its token there can
// match. This pins that cost.
std::string svc_name(size_t i) {
  std::string name = "svc";
  name += static_cast<char>('a' + i / 676 % 26);
  name += static_cast<char>('a' + i / 26 % 26);
  name += static_cast<char>('a' + i % 26);
  return name;
}

TEST_F(LogParserTest, SharedSignatureGroupIsScannedInGroupOrder) {
  // 200 patterns, one 5-token signature: every log's group is the whole
  // model, 40 patterns per log token, and its first token names one.
  std::vector<GrokPattern> m;
  for (size_t i = 0; i < 200; ++i) {
    auto p = GrokPattern::parse(svc_name(i) +
                                " worker %{WORD:op} %{NUMBER:n} done");
    ASSERT_TRUE(p.ok());
    p->assign_field_ids(static_cast<int>(i) + 1);
    m.push_back(std::move(p.value()));
  }
  LogParser parser(m, pre_.classifier());
  ASSERT_TRUE(parser.parse(pre_.process("svcaaa worker start 0 done")).log);
  EXPECT_EQ(parser.stats().groups_built, 1u);
  for (size_t i = 0; i < 50; ++i) {
    const size_t pi = i * 7 % 200;
    const uint64_t attempts_before = parser.stats().match_attempts;
    auto outcome = parser.parse(pre_.process(
        svc_name(pi) + " worker start " + std::to_string(i) + " done"));
    ASSERT_TRUE(outcome.log);
    EXPECT_EQ(outcome.log->pattern_id, static_cast<int>(pi) + 1);
    EXPECT_EQ(parser.stats().match_attempts - attempts_before, 1u)
        << svc_name(pi);
  }
  EXPECT_EQ(parser.stats().index_hits, 50u);
  EXPECT_EQ(parser.stats().set_fallbacks, 0u);
}

TEST_F(LogParserTest, KeyedPatternsMergeWithFieldsAtTheKeyInGroupOrder) {
  // Pattern 1 has a field where the others are keyed (position 0), and is
  // first in group order: a log it parses must not reach a keyed pattern.
  const auto m = model({"%{WORD:svc} worker start %{NUMBER:n} done",
                        "svcaaa worker %{WORD:op} %{NUMBER:n} done",
                        "svcaab worker %{WORD:op} %{NUMBER:n} done",
                        "svcaac worker %{WORD:op} %{NUMBER:n} done"});
  LogParser parser(m, pre_.classifier());
  ReferenceParser reference(m, group_order(m), pre_.classifier());
  EXPECT_EQ(expect_reference(parser, reference, "svcaaa worker start 5 done",
                             1),
            1u);
  EXPECT_EQ(expect_reference(parser, reference, "svcaab worker stop 6 done", 3),
            2u);
  EXPECT_EQ(expect_reference(parser, reference, "svcaac worker stop 7 done", 4),
            2u);
  EXPECT_EQ(expect_reference(parser, reference, "svcaaa worker stop 8 done", 2),
            2u);
}

TEST_F(LogParserTest, WildcardPatternsAreKeyedByAPrefixLiteral) {
  const auto m = model({"open %{WORD:f} %{ANYDATA:rest}",
                        "close %{WORD:f} %{ANYDATA:rest}",
                        "read %{WORD:f} %{ANYDATA:rest}"});
  LogParser parser(m, pre_.classifier());
  ReferenceParser reference(m, group_order(m), pre_.classifier());
  EXPECT_EQ(expect_reference(parser, reference, "read file a b", 3), 1u);
  EXPECT_EQ(expect_reference(parser, reference, "close file a b", 2), 1u);
  EXPECT_EQ(expect_reference(parser, reference, "open file", 1), 1u);
  EXPECT_EQ(expect_reference(parser, reference, "write file a b", 0), 0u);
}

TEST_F(LogParserTest, WildcardPatternsAreKeyedByARightAlignedSuffixLiteral) {
  // "mid" sits between two wildcards, at no fixed position, so it is not a
  // key; the verb three tokens from the end is.
  const auto m = model({"%{ANYDATA:what} failed with %{NUMBER:code}",
                        "%{ANYDATA:what} refused with %{NUMBER:code}",
                        "%{ANYDATA:a} mid %{ANYDATA:b} closed with %{NUMBER:c}"});
  LogParser parser(m, pre_.classifier());
  ReferenceParser reference(m, group_order(m), pre_.classifier());
  EXPECT_EQ(expect_reference(parser, reference, "disk failed with 5", 1), 1u);
  EXPECT_EQ(expect_reference(parser, reference, "a b c refused with 6", 2),
            1u);
  EXPECT_EQ(expect_reference(parser, reference, "x mid y z closed with 7", 3),
            1u);
  EXPECT_EQ(expect_reference(parser, reference, "mid closed with 8", 3), 1u);
  EXPECT_EQ(expect_reference(parser, reference, "x mid y done with 9", 0), 0u);
}

TEST_F(LogParserTest, UnmatchedKeyTokenFallsToTheUnkeyedPatterns) {
  // Pattern 3 has a field at the key and is last in group order.
  const auto with_field = model({"svcaaa worker %{WORD:op} %{NUMBER:n} done",
                                 "svcaab worker %{WORD:op} %{NUMBER:n} done",
                                 "%{WORD:svc} worker %{WORD:op} %{NUMBER:n} done"});
  const std::vector<GrokPattern> keyed_only(with_field.begin(),
                                            with_field.begin() + 2);

  LogParser parser(with_field, pre_.classifier());
  ReferenceParser reference(with_field, group_order(with_field),
                            pre_.classifier());
  EXPECT_EQ(expect_reference(parser, reference, "svczzz worker stop 5 done", 3),
            1u);
  EXPECT_EQ(expect_reference(parser, reference, "svcaab worker stop 6 done", 2),
            1u);

  // No unkeyed pattern: a token no literal matches attempts nothing.
  LogParser keyed(keyed_only, pre_.classifier());
  ReferenceParser keyed_reference(keyed_only, group_order(keyed_only),
                                  pre_.classifier());
  EXPECT_EQ(expect_reference(keyed, keyed_reference, "svcaaa worker stop 5 done",
                             1),
            1u);
  EXPECT_EQ(expect_reference(keyed, keyed_reference,
                             "svczzz worker stop 5 done", 0),
            0u);
  EXPECT_EQ(keyed.stats().unparsed, 1u);
}

TEST_F(LogParserTest, D4GroupsAreScannedAndMatchTheReference) {
  Dataset d4 = make_d4(/*scale=*/0.01);
  std::vector<TokenizedLog> training;
  for (const auto& line : d4.training) training.push_back(pre_.process(line));
  PatternDiscoverer discoverer(recommended_discovery("D4"),
                               pre_.classifier());
  const std::vector<GrokPattern> m = discoverer.discover(training);
  ASSERT_GT(m.size(), 1000u);

  LogParser parser(m, pre_.classifier());
  ReferenceParser reference(m, group_order(m), pre_.classifier());
  for (const auto& line : d4.testing) {
    const TokenizedLog log = pre_.process(line);
    auto a = parser.parse(log);
    auto b = reference.parse(log);
    ASSERT_EQ(a.log.has_value(), b.log.has_value()) << line;
    if (a.log) {
      EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << line;
    }
  }
  EXPECT_GT(parser.stats().index_hits, 0u);
  // The index's whole point: a group scan attempts a small fraction of the
  // patterns the full-model scan does.
  EXPECT_LT(parser.stats().match_attempts * 10, reference.match_attempts());
}

}  // namespace
}  // namespace loglens
