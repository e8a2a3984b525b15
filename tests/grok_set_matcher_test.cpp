#include "grok/set_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "parser/signature.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class GrokSetMatcherTest : public ::testing::Test {
 protected:
  GrokSetMatcherTest() : pre_(std::move(Preprocessor::create({}).value())) {}

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

  // Matching pattern indices by the per-pattern linear scan — the oracle the
  // walk must agree with exactly.
  std::vector<uint32_t> linear_scan(const std::vector<GrokPattern>& patterns,
                                    const std::vector<Token>& tokens) {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].match(tokens, pre_.classifier())) out.push_back(i);
    }
    return out;
  }

  Preprocessor pre_;
};

TEST_F(GrokSetMatcherTest, TokenWalkFindsEveryMatchingPattern) {
  auto patterns = model({
      "login %{WORD:u}",
      "login %{NOTSPACE:u}",
      "%{ANYDATA:x} ok",
      "login admin",
  });
  auto m = GrokSetMatcher::compile_tokens(patterns);
  EXPECT_EQ(m.pattern_count(), 4u);
  GrokSetScratch s;

  ASSERT_TRUE(m.match_tokens(pre_.process("login admin").tokens,
                             pre_.classifier(), s));
  EXPECT_EQ(s.result, (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_TRUE(s.prefilter_hit);  // "login" is in the literal alphabet

  ASSERT_TRUE(m.match_tokens(pre_.process("login a_b").tokens,
                             pre_.classifier(), s));
  EXPECT_EQ(s.result, (std::vector<uint32_t>{1}));  // a_b is not a WORD

  ASSERT_TRUE(
      m.match_tokens(pre_.process("boot ok").tokens, pre_.classifier(), s));
  EXPECT_EQ(s.result, (std::vector<uint32_t>{2}));
}

TEST_F(GrokSetMatcherTest, PrefilterMissReportsNoLiteralHit) {
  auto patterns = model({"login %{WORD:u}", "connect %{IP:a}"});
  auto m = GrokSetMatcher::compile_tokens(patterns);
  GrokSetScratch s;
  ASSERT_TRUE(
      m.match_tokens(pre_.process("zz qq").tokens, pre_.classifier(), s));
  EXPECT_TRUE(s.result.empty());
  EXPECT_FALSE(s.prefilter_hit);  // neither token is a pattern literal
}

TEST_F(GrokSetMatcherTest, WildcardSpansZeroOrManyTokens) {
  auto patterns = model({"start %{ANYDATA:x} end"});
  auto m = GrokSetMatcher::compile_tokens(patterns);
  GrokSetScratch s;
  const char* matching[] = {"start end", "start a end", "start a b c end"};
  for (const char* line : matching) {
    ASSERT_TRUE(
        m.match_tokens(pre_.process(line).tokens, pre_.classifier(), s));
    EXPECT_EQ(s.result, (std::vector<uint32_t>{0})) << line;
  }
  const char* rejecting[] = {"start", "end", "start end extra", "x start end"};
  for (const char* line : rejecting) {
    ASSERT_TRUE(
        m.match_tokens(pre_.process(line).tokens, pre_.classifier(), s));
    EXPECT_TRUE(s.result.empty()) << line;
  }
}

TEST_F(GrokSetMatcherTest, ActiveSetOverflowReportsFallback) {
  // With a cap of 1, two patterns diverging at the first symbol exceed the
  // active set immediately; the walk must refuse rather than drop patterns.
  auto patterns = model({"%{WORD:a} x", "%{NUMBER:a} x", "%{ANYDATA:r} y"});
  GrokSetOptions opts;
  opts.max_active = 1;
  auto m = GrokSetMatcher::compile_tokens(patterns, opts);
  GrokSetScratch s;
  EXPECT_FALSE(
      m.match_tokens(pre_.process("hello x").tokens, pre_.classifier(), s));
  EXPECT_TRUE(s.overflow);
}

TEST_F(GrokSetMatcherTest, ScratchIsReusableAcrossMatchersAndWalks) {
  auto a = GrokSetMatcher::compile_tokens(model({"alpha %{NUMBER:n}"}));
  auto b = GrokSetMatcher::compile_tokens(model({"beta %{WORD:w}"}));
  GrokSetScratch s;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        a.match_tokens(pre_.process("alpha 42").tokens, pre_.classifier(), s));
    EXPECT_EQ(s.result.size(), 1u);
    ASSERT_TRUE(
        b.match_tokens(pre_.process("alpha 42").tokens, pre_.classifier(), s));
    EXPECT_TRUE(s.result.empty());
    ASSERT_TRUE(
        b.match_tokens(pre_.process("beta ok").tokens, pre_.classifier(), s));
    EXPECT_EQ(s.result.size(), 1u);
  }
}

TEST_F(GrokSetMatcherTest, SignatureWalkAgreesWithAlgorithmOne) {
  // Seeded differential: random pattern signatures (all six datatypes,
  // wildcards included) against random log signatures (classified types
  // only) — the walk must reproduce signature_match exactly.
  Rng rng(20260808);
  const Datatype kPatternTypes[] = {Datatype::kWord,     Datatype::kNumber,
                                    Datatype::kIp,       Datatype::kNotSpace,
                                    Datatype::kDateTime, Datatype::kAnyData};
  const Datatype kLogTypes[] = {Datatype::kWord, Datatype::kNumber,
                                Datatype::kIp, Datatype::kNotSpace,
                                Datatype::kDateTime};

  std::vector<std::vector<Datatype>> sigs;
  for (int i = 0; i < 48; ++i) {
    std::vector<Datatype> sig;
    const size_t len = 1 + rng.below(6);
    for (size_t j = 0; j < len; ++j) {
      sig.push_back(kPatternTypes[rng.below(std::size(kPatternTypes))]);
    }
    sigs.push_back(std::move(sig));
  }
  auto m = GrokSetMatcher::compile_signatures(sigs);
  GrokSetScratch s;

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Datatype> log_sig;
    const size_t len = rng.below(7);  // empty signatures included
    for (size_t j = 0; j < len; ++j) {
      log_sig.push_back(kLogTypes[rng.below(std::size(kLogTypes))]);
    }
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < sigs.size(); ++i) {
      if (signature_match(log_sig, sigs[i])) expected.push_back(i);
    }
    ASSERT_TRUE(m.match_signature(log_sig, s)) << "trial " << trial;
    EXPECT_EQ(s.result, expected)
        << "trial " << trial << " sig " << signature_key(log_sig);
  }
}

TEST_F(GrokSetMatcherTest, TokenWalkAgreesWithLinearScan) {
  // Seeded differential at the token level: random GROK patterns over a
  // shared vocabulary vs random logs from the same vocabulary; the walk's
  // match set must be identical to running every pattern individually.
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
  auto m = GrokSetMatcher::compile_tokens(patterns);
  GrokSetScratch s;

  for (int trial = 0; trial < 600; ++trial) {
    std::string line;
    const size_t len = 1 + rng.below(6);
    for (size_t j = 0; j < len; ++j) {
      if (!line.empty()) line.push_back(' ');
      line += rng.pick(vocab);
    }
    TokenizedLog log = pre_.process(line);
    ASSERT_TRUE(m.match_tokens(log.tokens, pre_.classifier(), s)) << line;
    EXPECT_EQ(s.result, linear_scan(patterns, log.tokens)) << line;
  }
}

// The end-to-end guarantee the refactor rests on: a parser with the set
// matcher enabled produces byte-identical outcomes to the linear-scan
// parser, on every path (index hit, index miss, eviction churn, unparsed).
TEST_F(GrokSetMatcherTest, ParserOutcomesAreByteIdenticalToLinearScan) {
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

  struct Config {
    IndexMode index;
    size_t capacity;
  };
  const Config configs[] = {
      {IndexMode::kEnabled, LogParser::kDefaultIndexCapacity},
      {IndexMode::kEnabled, 1},  // every log is an index miss + eviction
      {IndexMode::kDisabled, LogParser::kDefaultIndexCapacity},
  };
  for (const auto& cfg : configs) {
    LogParser with_set(patterns, pre_.classifier(), cfg.index, cfg.capacity,
                       SetMatchMode::kAuto);
    with_set.force_set_walk(true);  // walk on every group size
    LogParser without(patterns, pre_.classifier(), cfg.index, cfg.capacity,
                      SetMatchMode::kDisabled);
    for (const auto& log : tokenized) {
      auto a = with_set.parse(log);
      auto b = without.parse(log);
      ASSERT_EQ(a.log.has_value(), b.log.has_value()) << log.raw;
      if (a.log.has_value()) {
        EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << log.raw;
      }
    }
    EXPECT_EQ(with_set.stats().unparsed, without.stats().unparsed);
    EXPECT_EQ(with_set.stats().set_fallbacks, 0u);
    if (cfg.index == IndexMode::kEnabled) {
      EXPECT_GT(with_set.stats().set_walks, 0u);
    }
  }
}

TEST_F(GrokSetMatcherTest, ResidentBytesAndNodeSharingReported) {
  // Shared prefixes must share trie nodes: two patterns with a common
  // 3-symbol prefix need fewer nodes than disjoint ones.
  auto shared = GrokSetMatcher::compile_tokens(model({
      "svc request %{NUMBER:a} done",
      "svc request %{NUMBER:a} failed",
  }));
  auto disjoint = GrokSetMatcher::compile_tokens(model({
      "svc request %{NUMBER:a} done",
      "db shutdown %{WORD:b} now",
  }));
  EXPECT_LT(shared.node_count(), disjoint.node_count());
  EXPECT_GT(shared.resident_bytes(), 0u);
  EXPECT_EQ(shared.literal_count(), 4u);  // svc request done failed
}

}  // namespace
}  // namespace loglens
