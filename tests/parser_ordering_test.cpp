// Properties of the candidate-group ordering (Section III-B step 2: groups
// are "sorted in the ascending order of datatype's generality and length")
// and of wildcard-heavy pattern matching.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class OrderingTest : public ::testing::Test {
 protected:
  OrderingTest() : pre_(std::move(Preprocessor::create({}).value())) {}

  GrokPattern pat(const char* text, int id) {
    auto p = GrokPattern::parse(text);
    EXPECT_TRUE(p.ok()) << text;
    p->assign_field_ids(id);
    return std::move(p.value());
  }

  Preprocessor pre_;
};

// Build random models of overlapping patterns; the indexed parser's chosen
// pattern must be minimal in generality among ALL patterns that match.
TEST_F(OrderingTest, ChosenPatternIsAlwaysMostSpecific) {
  Rng rng(99);
  const char* pieces[] = {"%{WORD:a}", "%{NUMBER:b}", "%{NOTSPACE:c}",
                          "%{ANYDATA:d}", "alpha", "beta"};
  for (int round = 0; round < 60; ++round) {
    // Random model of 2-6 random patterns (1-3 tokens each).
    std::vector<GrokPattern> model;
    int id = 1;
    size_t count = 2 + rng.below(5);
    for (size_t i = 0; i < count; ++i) {
      std::vector<std::string> toks;
      size_t len = 1 + rng.below(3);
      for (size_t t = 0; t < len; ++t) {
        toks.push_back(pieces[rng.below(6)]);
      }
      std::string text;
      for (size_t t = 0; t < toks.size(); ++t) {
        if (t > 0) text += " ";
        text += toks[t];
      }
      auto parsed = GrokPattern::parse(text);
      if (!parsed.ok()) continue;
      parsed->assign_field_ids(id++);
      model.push_back(std::move(parsed.value()));
    }
    if (model.empty()) continue;
    LogParser parser(model, pre_.classifier());

    const char* inputs[] = {"alpha", "beta", "42", "hello", "x9",
                            "alpha 42", "beta hello", "42 x9 alpha"};
    for (const char* in : inputs) {
      TokenizedLog log = pre_.process(in);
      auto outcome = parser.parse(log);
      if (!outcome.log.has_value()) continue;
      // Find the chosen pattern and verify minimality.
      int chosen_gen = -1;
      for (const auto& p : model) {
        if (p.id() == outcome.log->pattern_id) chosen_gen = p.generality_score();
      }
      ASSERT_GE(chosen_gen, 0);
      for (const auto& p : model) {
        if (p.match(log, pre_.classifier())) {
          EXPECT_LE(chosen_gen, p.generality_score())
              << "input '" << in << "' chose P" << outcome.log->pattern_id
              << " but P" << p.id() << " is more specific";
        }
      }
    }
  }
}

TEST_F(OrderingTest, MultipleWildcardsExtractLazily) {
  std::vector<GrokPattern> model;
  model.push_back(pat("%{ANYDATA:head} ERROR %{ANYDATA:mid} at %{ANYDATA:tail}", 1));
  LogParser parser(model, pre_.classifier());
  auto outcome = parser.parse(
      pre_.process("svc worker ERROR out of memory at handler line 42"));
  ASSERT_TRUE(outcome.log.has_value());
  const JsonObject& f = outcome.log->fields;
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].second.as_string(), "svc worker");
  EXPECT_EQ(f[1].second.as_string(), "out of memory");
  EXPECT_EQ(f[2].second.as_string(), "handler line 42");
}

TEST_F(OrderingTest, WildcardAnchorAmbiguityResolvedConsistently) {
  // Two possible splits ("a AT b AT c"): lazy wildcards bind the first AT.
  std::vector<GrokPattern> model;
  model.push_back(pat("%{ANYDATA:x} AT %{ANYDATA:y}", 1));
  LogParser parser(model, pre_.classifier());
  auto outcome = parser.parse(pre_.process("a AT b AT c"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->fields[0].second.as_string(), "a");
  EXPECT_EQ(outcome.log->fields[1].second.as_string(), "b AT c");
}

TEST_F(OrderingTest, LongWildcardMatchScalesLinearly) {
  // A 4000-token log against a wildcard pattern must parse quickly and
  // correctly (guards against exponential backtracking in pattern match).
  std::vector<GrokPattern> model;
  model.push_back(pat("start %{ANYDATA:body} finish", 1));
  LogParser parser(model, pre_.classifier());
  std::string line = "start";
  for (int i = 0; i < 4000; ++i) line += " t" + std::to_string(i);
  line += " finish";
  auto outcome = parser.parse(pre_.process(line));
  ASSERT_TRUE(outcome.log.has_value());
}

TEST_F(OrderingTest, TiesBrokenByLengthThenInsertion) {
  // Same generality, different lengths: shorter wins. Same generality and
  // length: first in model order wins (deterministic).
  std::vector<GrokPattern> model;
  model.push_back(pat("%{WORD:a} %{WORD:b} %{WORD:c}", 1));
  model.push_back(pat("%{WORD:a} beta %{WORD:c}", 2));  // less general
  LogParser parser(model, pre_.classifier());
  auto outcome = parser.parse(pre_.process("alpha beta gamma"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 2);
}

}  // namespace
}  // namespace loglens
