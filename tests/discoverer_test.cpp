#include "logmine/discoverer.h"

#include <gtest/gtest.h>

#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class DiscovererTest : public ::testing::Test {
 protected:
  DiscovererTest() : pre_(std::move(Preprocessor::create({}).value())) {}

  std::vector<TokenizedLog> tokenize(const std::vector<std::string>& lines) {
    std::vector<TokenizedLog> out;
    for (const auto& l : lines) out.push_back(pre_.process(l));
    return out;
  }

  std::vector<GrokPattern> discover(const std::vector<std::string>& lines,
                                    DiscoveryOptions opts = {}) {
    PatternDiscoverer d(opts, pre_.classifier());
    return d.discover(tokenize(lines));
  }

  Preprocessor pre_;
};

TEST_F(DiscovererTest, DatatypeJoin) {
  EXPECT_EQ(datatype_join(Datatype::kWord, Datatype::kWord), Datatype::kWord);
  EXPECT_EQ(datatype_join(Datatype::kWord, Datatype::kNumber),
            Datatype::kNotSpace);
  EXPECT_EQ(datatype_join(Datatype::kWord, Datatype::kNotSpace),
            Datatype::kNotSpace);
  EXPECT_EQ(datatype_join(Datatype::kIp, Datatype::kNumber),
            Datatype::kNotSpace);
  EXPECT_EQ(datatype_join(Datatype::kDateTime, Datatype::kWord),
            Datatype::kAnyData);
  EXPECT_EQ(datatype_join(Datatype::kAnyData, Datatype::kWord),
            Datatype::kAnyData);
}

TEST_F(DiscovererTest, SingleClusterBecomesOnePattern) {
  // Short logs with 3 variable positions out of 4 sit at distance 0.375,
  // so this test widens the threshold accordingly.
  DiscoveryOptions opts;
  opts.max_dist = 0.45;
  auto patterns = discover(
      {
          "2016/02/23 09:00:31 10.0.0.1 login user1",
          "2016/02/23 09:00:32 10.0.0.2 login user2",
          "2016/02/23 09:00:33 10.0.0.3 login user3",
      },
      opts);
  ASSERT_EQ(patterns.size(), 1u);
  const GrokPattern& p = patterns[0];
  ASSERT_EQ(p.size(), 4u);
  EXPECT_TRUE(p.tokens()[0].is_field);
  EXPECT_EQ(p.tokens()[0].field.type, Datatype::kDateTime);
  EXPECT_TRUE(p.tokens()[1].is_field);
  EXPECT_EQ(p.tokens()[1].field.type, Datatype::kIp);
  EXPECT_FALSE(p.tokens()[2].is_field);  // constant "login"
  EXPECT_EQ(p.tokens()[2].literal, "login");
  EXPECT_TRUE(p.tokens()[3].is_field);
  EXPECT_EQ(p.tokens()[3].field.type, Datatype::kNotSpace);
}

TEST_F(DiscovererTest, TimestampAlwaysBecomesField) {
  // Even when every training log shares the same timestamp text.
  auto patterns = discover({
      "2016/02/23 09:00:31 boot ok",
      "2016/02/23 09:00:31 boot ok",
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_TRUE(patterns[0].tokens()[0].is_field);
  EXPECT_EQ(patterns[0].tokens()[0].field.type, Datatype::kDateTime);
}

TEST_F(DiscovererTest, DistinctShapesYieldDistinctPatterns) {
  auto patterns = discover({
      "alpha begin job j1 on 10.0.0.1",
      "alpha begin job j2 on 10.0.0.2",
      "omega finish task 42 code 0",
      "omega finish task 43 code 1",
      "short line",
  });
  EXPECT_EQ(patterns.size(), 3u);
}

TEST_F(DiscovererTest, DifferentLengthsNeverClusterAtLevelZero) {
  auto patterns = discover({
      "a b c",
      "a b c d",
  });
  EXPECT_EQ(patterns.size(), 2u);
}

TEST_F(DiscovererTest, PatternsParseTheirTrainingLogs) {
  // Property: every training log must be matched by some discovered pattern.
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) {
    lines.push_back("2016/02/23 09:00:" + std::to_string(10 + i % 50) +
                    " 10.0.0." + std::to_string(i % 9 + 1) + " login user" +
                    std::to_string(i));
    lines.push_back("worker " + std::to_string(i) + " heartbeat ok");
  }
  auto patterns = discover(lines);
  ASSERT_FALSE(patterns.empty());
  for (const auto& line : lines) {
    TokenizedLog log = pre_.process(line);
    bool matched = false;
    for (const auto& p : patterns) {
      if (p.match(log.tokens, pre_.classifier())) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << line;
  }
}

TEST_F(DiscovererTest, FieldIdsAssignedSequentially) {
  auto patterns = discover({
      "x 10.0.0.1 y 17",
      "x 10.0.0.2 y 18",
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].id(), 1);
  EXPECT_EQ(patterns[0].tokens()[1].field.name, "P1F1");
  EXPECT_EQ(patterns[0].tokens()[3].field.name, "P1F2");
}

TEST_F(DiscovererTest, HeuristicNamingAppliedToResult) {
  auto patterns = discover({
      "PDU = 17 level = 3",
      "PDU = 23 level = 9",
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].to_string(), "PDU = %{NUMBER:PDU} level = %{NUMBER:level}");
}

TEST_F(DiscovererTest, MaxPatternsCapTriggersHierarchicalMerge) {
  // 12 distinct shapes sharing structure; a tight cap must force merges
  // that introduce wildcard fields yet still parse everything.
  std::vector<std::string> lines;
  for (int v = 0; v < 12; ++v) {
    for (int i = 0; i < 3; ++i) {
      lines.push_back("svc op" + std::to_string(v) + " phase" +
                      std::to_string(v % 3) + " value " + std::to_string(i) +
                      (v % 2 == 0 ? " extra tail" : ""));
    }
  }
  DiscoveryOptions capped;
  capped.max_patterns = 4;
  auto patterns = discover(lines, capped);
  EXPECT_LE(patterns.size(), 8u);  // strictly fewer than the 12 inputs
  EXPECT_LT(patterns.size(), 12u);
  for (const auto& line : lines) {
    TokenizedLog log = pre_.process(line);
    bool matched = false;
    for (const auto& p : patterns) {
      if (p.match(log.tokens, pre_.classifier())) matched = true;
    }
    EXPECT_TRUE(matched) << line;
  }
}

TEST_F(DiscovererTest, MergePatternsAlignsAndWidens) {
  auto a = GrokPattern::parse("start %{WORD:x} finish").value();
  auto b = GrokPattern::parse("start %{NUMBER:y} extra finish").value();
  DatatypeClassifier c;
  GrokPattern merged = merge_patterns(a, b, c);
  // Start/finish anchor; the middle differs in type and arity.
  EXPECT_FALSE(merged.tokens().front().is_field);
  EXPECT_EQ(merged.tokens().front().literal, "start");
  EXPECT_FALSE(merged.tokens().back().is_field);
  EXPECT_EQ(merged.tokens().back().literal, "finish");
  EXPECT_TRUE(merged.has_wildcard() ||
              merged.generality_score() > a.generality_score());
}

TEST_F(DiscovererTest, PatternDistanceProperties) {
  DatatypeClassifier c;
  auto a = GrokPattern::parse("alpha %{WORD:x} beta").value();
  auto b = GrokPattern::parse("alpha %{WORD:y} beta").value();
  auto far = GrokPattern::parse("gamma delta epsilon zeta").value();
  EXPECT_LT(pattern_distance(a, b, c), 0.2);
  EXPECT_GT(pattern_distance(a, far, c), 0.5);
  EXPECT_DOUBLE_EQ(pattern_distance(a, a, c),
                   pattern_distance(a, a, c));  // deterministic
  EXPECT_LE(pattern_distance(a, b, c), 1.0);
  EXPECT_GE(pattern_distance(a, b, c), 0.0);
}

TEST_F(DiscovererTest, TokenDistanceBounds) {
  auto t1 = tokenize({"a b c"})[0].tokens;
  auto t2 = tokenize({"a b d"})[0].tokens;
  auto t3 = tokenize({"a b"})[0].tokens;
  EXPECT_DOUBLE_EQ(token_distance(t1, t1), 0.0);
  double d12 = token_distance(t1, t2);
  EXPECT_GT(d12, 0.0);
  EXPECT_LT(d12, 0.5);  // one WORD-vs-WORD mismatch out of three
  EXPECT_DOUBLE_EQ(token_distance(t1, t3), 1.0);  // length mismatch
}

TEST_F(DiscovererTest, EmptyInput) {
  EXPECT_TRUE(discover({}).empty());
  EXPECT_TRUE(discover({"", "   "}).empty());
}

TEST_F(DiscovererTest, IncrementalWithEmptyKnownEqualsDiscover) {
  std::vector<std::string> lines = {
      "worker 1 heartbeat ok",
      "worker 2 heartbeat ok",
      "db connect 10.0.0.1 failed",
      "db connect 10.0.0.2 failed",
  };
  auto full = discover(lines);
  PatternDiscoverer d({}, pre_.classifier());
  auto inc = d.discover_incremental(tokenize(lines), {});
  ASSERT_EQ(inc.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(inc[i].id(), full[i].id());
    EXPECT_EQ(inc[i].to_string(), full[i].to_string());
  }
}

TEST_F(DiscovererTest, IncrementalReturnsKnownUnchangedWhenNothingIsNovel) {
  auto known = discover({"worker 1 heartbeat ok", "worker 2 heartbeat ok"});
  ASSERT_EQ(known.size(), 1u);
  PatternDiscoverer d({}, pre_.classifier());
  auto result = d.discover_incremental(
      tokenize({"worker 7 heartbeat ok", "worker 99 heartbeat ok"}), known);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id(), known[0].id());
  EXPECT_EQ(result[0].to_string(), known[0].to_string());
}

TEST_F(DiscovererTest, IncrementalAppendsNovelWithContinuedIds) {
  auto known = discover({"worker 1 heartbeat ok", "worker 2 heartbeat ok"});
  ASSERT_EQ(known.size(), 1u);
  known[0].assign_field_ids(7);  // simulate a model with higher ids
  PatternDiscoverer d({}, pre_.classifier());
  auto result = d.discover_incremental(tokenize({
                                           "worker 5 heartbeat ok",
                                           "db connect 10.0.0.1 failed",
                                           "db connect 10.0.0.2 failed",
                                       }),
                                       known);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id(), 7);  // known survives untouched, in place
  EXPECT_EQ(result[0].to_string(), known[0].to_string());
  EXPECT_EQ(result[1].id(), 8);  // novel continues after the highest known id
  EXPECT_TRUE(result[1].match(pre_.process("db connect 10.0.0.3 failed").tokens,
                              pre_.classifier()));
  // The covered log did not spawn a duplicate of the known pattern.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_FALSE(result[i].match(pre_.process("worker 5 heartbeat ok").tokens,
                                 pre_.classifier()));
  }
}

TEST_F(DiscovererTest, IncrementalDropsEveryLineAKnownPatternParses) {
  // A line is novel iff no known pattern parses it: the wildcard pattern
  // covers lines of several lengths (one index entry per length), and some
  // lines only the second known pattern covers.
  std::vector<GrokPattern> known;
  for (const char* text :
       {"start %{ANYDATA:body} end", "db %{WORD:op} %{IP:server}"}) {
    auto p = GrokPattern::parse(text);
    ASSERT_TRUE(p.ok()) << text;
    p->assign_field_ids(static_cast<int>(known.size()) + 1);
    known.push_back(std::move(p.value()));
  }
  const std::vector<std::string> covered = {
      "start end",
      "start a end",
      "start a 42 end",
      "start a b c d e f end",
      "db connect 10.0.0.1",
      "db close 10.0.0.2",
  };
  const std::vector<std::string> novel = {
      "kernel panic code 42",
      "kernel panic code 43",
      "kernel panic code 44",
  };
  std::vector<std::string> lines;
  for (size_t i = 0; i < novel.size(); ++i) {
    lines.push_back(covered[i]);
    lines.push_back(novel[i]);
  }
  lines.insert(lines.end(), covered.begin() + novel.size(), covered.end());

  PatternDiscoverer d({}, pre_.classifier());
  auto result = d.discover_incremental(tokenize(lines), known);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], known[0]);
  EXPECT_EQ(result[1], known[1]);
  EXPECT_EQ(result[2].id(), 3);
  for (const auto& line : novel) {
    EXPECT_TRUE(result[2].match(pre_.process(line).tokens, pre_.classifier()))
        << line;
  }
  for (const auto& line : covered) {
    EXPECT_FALSE(result[2].match(pre_.process(line).tokens, pre_.classifier()))
        << line;
  }
}

}  // namespace
}  // namespace loglens
