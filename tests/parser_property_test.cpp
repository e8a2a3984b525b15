// Cross-module property tests: the signature index must be a lossless
// accelerator, and discovered models must parse their corpora end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "parser_reference.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class ParserProperty : public ::testing::Test {
 protected:
  ParserProperty() : pre_(std::move(Preprocessor::create({}).value())) {}

  std::vector<GrokPattern> discover(const std::vector<std::string>& lines,
                                    DiscoveryOptions opts) {
    std::vector<TokenizedLog> toks;
    toks.reserve(lines.size());
    for (const auto& l : lines) toks.push_back(pre_.process(l));
    PatternDiscoverer d(opts, pre_.classifier());
    return d.discover(toks);
  }

  Preprocessor pre_;
};

// Invariant (DESIGN.md): for any log, the indexed parser and the naive
// all-pattern scan agree on *whether* the log parses. (They may pick
// different patterns when several match — the index orders by specificity —
// so we compare parseability, not pattern identity.)
TEST_F(ParserProperty, IndexNeverLosesMatches) {
  Dataset d3 = make_d3(/*scale=*/0.002);
  auto patterns = discover(d3.training, recommended_discovery("D3"));
  ASSERT_FALSE(patterns.empty());

  LogParser indexed(patterns, pre_.classifier());
  ReferenceParser naive(patterns, model_order(patterns), pre_.classifier());
  size_t checked = 0;
  for (const auto& line : d3.testing) {
    TokenizedLog log = pre_.process(line);
    bool a = indexed.parse(log).log.has_value();
    bool b = naive.parse(log).log.has_value();
    ASSERT_EQ(a, b) << line;
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

TEST_F(ParserProperty, TrainEqualsTestSanityZeroAnomalies) {
  // The Table IV setup: training and testing share templates, so a correct
  // parser yields zero unparsed logs.
  for (const char* name : {"D3", "D5"}) {
    Dataset ds = make_dataset(name, /*scale=*/0.002);
    auto patterns = discover(ds.training, recommended_discovery(name));
    LogParser parser(patterns, pre_.classifier());
    for (const auto& line : ds.testing) {
      ASSERT_TRUE(parser.parse(pre_.process(line)).log.has_value())
          << name << ": " << line;
    }
    EXPECT_EQ(parser.stats().unparsed, 0u) << name;
  }
}

TEST_F(ParserProperty, DiscoveredPatternCountTracksTemplateCount) {
  // Shape check for Table IV's pattern counts: discovery over the template
  // corpora recovers approximately one pattern per template.
  Dataset d5 = make_d5(/*scale=*/0.004);  // 243 templates
  auto patterns = discover(d5.training, recommended_discovery("D5"));
  EXPECT_GE(patterns.size(), 230u);
  EXPECT_LE(patterns.size(), 260u);
}

TEST_F(ParserProperty, ParsedFieldsRoundTripThroughJson) {
  Dataset d3 = make_d3(0.001);
  auto patterns = discover(d3.training, recommended_discovery("D3"));
  LogParser parser(patterns, pre_.classifier());
  size_t parsed_count = 0;
  for (size_t i = 0; i < d3.testing.size() && i < 200; ++i) {
    auto outcome = parser.parse(pre_.process(d3.testing[i]));
    if (!outcome.log.has_value()) continue;
    ++parsed_count;
    Json j = outcome.log->to_json();
    auto reparsed = Json::parse(j.dump());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value(), j);
  }
  EXPECT_GT(parsed_count, 100u);
}

// The stronger invariant the parser's single route rests on: every pattern
// that parses a log passes Algorithm 1 for it, so the indexed parser picks
// exactly the pattern a full-model scan in group order picks. Checked byte
// for byte at the default index capacity and at capacity 1, where every log
// is an index miss plus an eviction.
struct IdenticalRun {
  size_t parsed = 0;            // how many of the logs parse
  double attempts_per_log = 0;  // the larger of the two capacities'
};

IdenticalRun expect_byte_identical(const std::vector<GrokPattern>& patterns,
                                   const std::vector<TokenizedLog>& logs,
                                   const DatatypeClassifier& classifier) {
  IdenticalRun run;
  ReferenceParser reference(patterns, group_order(patterns), classifier);
  std::vector<std::optional<std::string>> expected;
  for (const auto& log : logs) {
    auto outcome = reference.parse(log);
    if (outcome.log) {
      ++run.parsed;
      expected.push_back(outcome.log->to_json().dump());
    } else {
      expected.emplace_back();
    }
  }
  for (size_t capacity : {LogParser::kDefaultIndexCapacity, size_t{1}}) {
    LogParser indexed(patterns, classifier, capacity);
    for (size_t i = 0; i < logs.size(); ++i) {
      auto outcome = indexed.parse(logs[i]);
      EXPECT_EQ(outcome.log.has_value(), expected[i].has_value())
          << "capacity " << capacity << ": " << logs[i].raw();
      if (!outcome.log || !expected[i]) continue;
      EXPECT_EQ(outcome.log->to_json().dump(), *expected[i])
          << "capacity " << capacity << ": " << logs[i].raw();
      EXPECT_EQ(outcome.log->raw, logs[i].raw());
    }
    EXPECT_EQ(indexed.stats().set_fallbacks, 0u);
    run.attempts_per_log = std::max(
        run.attempts_per_log,
        static_cast<double>(indexed.stats().match_attempts) /
            static_cast<double>(std::max<size_t>(1, logs.size())));
  }
  return run;
}

TEST_F(ParserProperty, MatchesGroupOrderScanOnChurnedCorpus) {
  Rng rng(987);
  std::vector<std::string> corpus;
  for (int i = 0; i < 120; ++i) {
    corpus.push_back("worker " + std::to_string(i % 17) + " heartbeat ok");
    corpus.push_back("2016/02/23 09:00:" + std::to_string(10 + i % 50) +
                     " 10.0.0." + std::to_string(i % 9 + 1) + " login user" +
                     std::to_string(i));
    corpus.push_back("db connect " + rng.ident(5) + " latency " +
                     std::to_string(i) + " ms");
    corpus.push_back(rng.ident(4) + " unmodeled " + rng.hex(8));  // unparsed
  }
  // Model from discovery over a prefix, so later logs exercise both parsed
  // and unparsed outcomes; shuffle to churn the signature index.
  std::vector<TokenizedLog> tokenized;
  for (const auto& line : corpus) tokenized.push_back(pre_.process(line));
  PatternDiscoverer discoverer({}, pre_.classifier());
  std::vector<GrokPattern> patterns = discoverer.discover(
      {tokenized.begin(), tokenized.begin() + 60});
  ASSERT_FALSE(patterns.empty());
  for (size_t i = corpus.size(); i > 1; --i) {
    std::swap(tokenized[i - 1], tokenized[rng.below(i)]);
  }
  const size_t parsed =
      expect_byte_identical(patterns, tokenized, pre_.classifier()).parsed;
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, tokenized.size());
}

TEST_F(ParserProperty, MatchesGroupOrderScanOnRandomPatterns) {
  // Random GROK patterns over a shared vocabulary (wildcards, overlapping
  // literals and fields included) against random logs from the same
  // vocabulary: many logs are parsed by several patterns of unequal
  // generality, and some by none.
  Rng rng(4242);
  const std::vector<std::string> vocab = {"alpha", "beta",     "gamma",
                                          "login", "connect",  "42",
                                          "3.5",   "10.0.0.9", "x_y"};
  const std::vector<std::string> types = {"WORD", "NUMBER", "IP", "NOTSPACE",
                                          "ANYDATA"};
  std::vector<GrokPattern> patterns;
  int id = 1;
  while (patterns.size() < 40) {
    std::string text;
    const size_t len = 1 + rng.below(5);
    int field = 0;
    for (size_t j = 0; j < len; ++j) {
      if (!text.empty()) text.push_back(' ');
      if (rng.chance(0.5)) {
        text += "%{" + rng.pick(types) + ":f" + std::to_string(field++) + "}";
      } else {
        text += rng.pick(vocab);
      }
    }
    auto p = GrokPattern::parse(text);
    ASSERT_TRUE(p.ok()) << text;
    p->assign_field_ids(id++);
    patterns.push_back(std::move(p.value()));
  }
  std::vector<TokenizedLog> logs;
  for (int trial = 0; trial < 600; ++trial) {
    std::string line;
    const size_t len = 1 + rng.below(6);
    for (size_t j = 0; j < len; ++j) {
      if (!line.empty()) line.push_back(' ');
      line += rng.pick(vocab);
    }
    logs.push_back(pre_.process(line));
  }
  EXPECT_GT(expect_byte_identical(patterns, logs, pre_.classifier()).parsed,
            0u);
}

TEST_F(ParserProperty, MatchesGroupOrderScanOnD4) {
  Dataset d4 = make_d4(/*scale=*/0.01);
  std::vector<TokenizedLog> training;
  for (const auto& line : d4.training) training.push_back(pre_.process(line));
  PatternDiscoverer discoverer(recommended_discovery("D4"),
                               pre_.classifier());
  const std::vector<GrokPattern> patterns = discoverer.discover(training);
  ASSERT_GT(patterns.size(), 1000u);
  std::vector<TokenizedLog> testing;
  for (const auto& line : d4.testing) testing.push_back(pre_.process(line));
  const IdenticalRun run =
      expect_byte_identical(patterns, testing, pre_.classifier());
  EXPECT_GT(run.parsed, 0u);
  // D4's candidate groups hold dozens of patterns that share a signature;
  // the literal sub-index leaves about one attempt per log (the group scan
  // alone made about 16).
  EXPECT_LE(run.attempts_per_log, 1.05);
}

// Parameterized sweep: the index invariant must hold across dataset flavors.
class IndexInvariantSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexInvariantSweep, IndexedEqualsNaiveParseability) {
  auto pre = std::move(Preprocessor::create({}).value());
  Dataset ds = make_dataset(GetParam(), /*scale=*/0.001);
  std::vector<TokenizedLog> toks;
  for (const auto& l : ds.training) toks.push_back(pre.process(l));
  PatternDiscoverer d(recommended_discovery(GetParam()), pre.classifier());
  auto patterns = d.discover(toks);
  ASSERT_FALSE(patterns.empty());
  LogParser indexed(patterns, pre.classifier());
  ReferenceParser naive(patterns, model_order(patterns), pre.classifier());
  size_t limit = std::min<size_t>(ds.testing.size(), 400);
  for (size_t i = 0; i < limit; ++i) {
    TokenizedLog log = pre.process(ds.testing[i]);
    ASSERT_EQ(indexed.parse(log).log.has_value(),
              naive.parse(log).log.has_value())
        << GetParam() << ": " << ds.testing[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, IndexInvariantSweep,
                         ::testing::Values("D1", "D2", "D3", "D5", "SS7"));

}  // namespace
}  // namespace loglens
