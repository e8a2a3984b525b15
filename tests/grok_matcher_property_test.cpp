// Property tests pinning the iterative GROK matcher to the semantics of the
// original recursive shortest-first matcher, plus regressions for the two
// pathologies the rewrite removed: exponential wildcard backtracking and
// recursion depth proportional to the pattern length.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grok/datatype.h"
#include "grok/pattern.h"
#include "grok/token.h"
#include "json/json.h"

namespace loglens {
namespace {

// The pre-rewrite matcher, kept verbatim as the executable specification:
// wildcards consume zero or more tokens, shortest first, with full
// backtracking over every wildcard. It reads token texts through the log,
// the matcher's only change of interface since.
bool reference_match(const GrokPattern& pattern, const TokenizedLog& log,
                     const DatatypeClassifier& classifier, size_t ti,
                     size_t pi, JsonObject* out) {
  const std::vector<Token>& tokens = log.tokens;
  const auto& ptoks = pattern.tokens();
  if (pi == ptoks.size()) return ti == tokens.size();
  const GrokToken& pt = ptoks[pi];
  if (!pt.is_field) {
    if (ti < tokens.size() && log.token_text(ti) == pt.literal) {
      return reference_match(pattern, log, classifier, ti + 1, pi + 1, out);
    }
    return false;
  }
  if (pt.field.type == Datatype::kAnyData) {
    for (size_t take = 0; ti + take <= tokens.size(); ++take) {
      size_t mark = out != nullptr ? out->size() : 0;
      if (out != nullptr) {
        std::string joined;
        for (size_t k = 0; k < take; ++k) {
          if (k > 0) joined += ' ';
          joined += log.token_text(ti + k);
        }
        out->emplace_back(pt.field.name, Json(std::move(joined)));
      }
      if (reference_match(pattern, log, classifier, ti + take, pi + 1, out)) {
        return true;
      }
      if (out != nullptr) out->resize(mark);
    }
    return false;
  }
  if (ti >= tokens.size()) return false;
  const Token& tok = tokens[ti];
  bool ok = pt.field.type == Datatype::kDateTime
                ? tok.type == Datatype::kDateTime
                : tok.type != Datatype::kDateTime &&
                      classifier.matches(log.text_of(tok), pt.field.type);
  if (!ok) return false;
  size_t mark = out != nullptr ? out->size() : 0;
  if (out != nullptr) {
    out->emplace_back(pt.field.name, Json(std::string(log.text_of(tok))));
  }
  if (reference_match(pattern, log, classifier, ti + 1, pi + 1, out)) {
    return true;
  }
  if (out != nullptr) out->resize(mark);
  return false;
}

constexpr const char* kDateTimeText = "2016/02/23 09:00:31.000";

class GrokMatcherProperty : public ::testing::Test {
 protected:
  void add_token(TokenizedLog& log, const std::string& text) {
    log.push_token(text, text == kDateTimeText ? Datatype::kDateTime
                                               : classifier_.classify(text));
  }

  TokenizedLog make_log(std::initializer_list<std::string> texts) {
    TokenizedLog log;
    for (const auto& text : texts) add_token(log, text);
    return log;
  }

  GrokPattern random_pattern(Rng& rng) {
    static const std::vector<std::string> kLiterals = {"alpha", "beta", "x",
                                                       "42"};
    static const std::vector<Datatype> kFieldTypes = {
        Datatype::kWord,     Datatype::kNumber,   Datatype::kIp,
        Datatype::kNotSpace, Datatype::kDateTime, Datatype::kAnyData,
        Datatype::kAnyData};  // wildcards twice as likely
    std::vector<GrokToken> toks;
    const size_t len = 1 + rng.below(8);
    for (size_t i = 0; i < len; ++i) {
      if (rng.chance(0.4)) {
        toks.push_back(GrokToken::make_literal(rng.pick(kLiterals)));
      } else {
        toks.push_back(GrokToken::make_field(
            rng.pick(kFieldTypes), "f" + std::to_string(toks.size())));
      }
    }
    return GrokPattern(std::move(toks));
  }

  TokenizedLog random_log(Rng& rng) {
    static const std::vector<std::string> kTexts = {
        "alpha", "beta", "x",      "42",   "7.5",
        "hello", "a1b2", "10.0.0.7", kDateTimeText};
    TokenizedLog log;
    const size_t len = rng.below(12);
    for (size_t i = 0; i < len; ++i) add_token(log, rng.pick(kTexts));
    return log;
  }

  DatatypeClassifier classifier_;
};

TEST_F(GrokMatcherProperty, AgreesWithRecursiveReferenceOnRandomInputs) {
  Rng rng(20260805);
  GrokMatchScratch scratch;
  size_t matched = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    GrokPattern pattern = random_pattern(rng);
    TokenizedLog log = random_log(rng);

    JsonObject want;
    bool want_ok =
        reference_match(pattern, log, classifier_, 0, 0, &want);
    JsonObject got;
    bool got_ok = pattern.match_into(log, classifier_, &got, scratch);

    ASSERT_EQ(want_ok, got_ok)
        << "pattern: " << pattern.to_string() << " iter " << iter;
    ASSERT_EQ(want_ok, pattern.match(log, classifier_))
        << "bool-only overload diverges: " << pattern.to_string();
    if (want_ok) {
      ++matched;
      ASSERT_EQ(Json(want), Json(got))
          << "pattern: " << pattern.to_string() << " iter " << iter;
    }
  }
  // Sanity: the generator produces a healthy mix of matches and misses.
  EXPECT_GT(matched, 100u);
}

TEST_F(GrokMatcherProperty, MultiWildcardCapturesAreLazyLeftToRight) {
  // Earlier wildcards take as few tokens as possible: a="", b="sep".
  auto pattern =
      GrokPattern::parse("%{ANYDATA:a} sep %{ANYDATA:b}").value();
  TokenizedLog log = make_log({"sep", "sep"});
  GrokMatchScratch scratch;
  JsonObject out;
  ASSERT_TRUE(pattern.match_into(log, classifier_, &out, scratch));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second.as_string(), "");
  EXPECT_EQ(out[1].second.as_string(), "sep");
}

TEST_F(GrokMatcherProperty, SlotReuseOverwritesStaleFields) {
  // A smaller match after a larger one must shrink the output object.
  auto big =
      GrokPattern::parse("%{WORD:a} %{NUMBER:b} %{WORD:c}").value();
  auto small = GrokPattern::parse("%{WORD:only}").value();
  TokenizedLog log3 = make_log({"alpha", "42", "beta"});
  TokenizedLog log1 = make_log({"hello"});
  GrokMatchScratch scratch;
  JsonObject out;
  ASSERT_TRUE(big.match_into(log3, classifier_, &out, scratch));
  ASSERT_EQ(out.size(), 3u);
  ASSERT_TRUE(small.match_into(log1, classifier_, &out, scratch));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "only");
  EXPECT_EQ(out[0].second.as_string(), "hello");
}

TEST_F(GrokMatcherProperty, FailedMatchLeavesOutputUntouched) {
  auto pattern = GrokPattern::parse("%{NUMBER:n}").value();
  TokenizedLog log = make_log({"alpha"});
  GrokMatchScratch scratch;
  JsonObject out;
  out.emplace_back("keep", Json("me"));
  ASSERT_FALSE(pattern.match_into(log, classifier_, &out, scratch));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "keep");
}

TEST_F(GrokMatcherProperty, AdversarialWildcardsFinishWithinQuadraticBudget) {
  // Three wildcards anchored on a token that appears everywhere, against a
  // 200-token log the pattern cannot match. The recursive matcher explored
  // an exponential number of take-combinations here; the iterative one is
  // bounded by pattern-length * log-length.
  auto trailing = GrokPattern::parse(
                      "%{ANYDATA:a} alpha %{ANYDATA:b} zzz %{ANYDATA:c}")
                      .value();
  TokenizedLog log;
  for (int i = 0; i < 200; ++i) add_token(log, "alpha");
  GrokMatchScratch scratch;
  EXPECT_FALSE(trailing.match_into(log, classifier_, nullptr, scratch));
  EXPECT_LT(scratch.steps, 10'000u);
}

TEST_F(GrokMatcherProperty, UnmatchableTailFailsBeforeWildcardWork) {
  // The fixed suffix after the last wildcard is anchored right-aligned
  // first, so the impossible trailing literal rejects in O(suffix).
  auto pattern = GrokPattern::parse(
                     "%{ANYDATA:a} alpha %{ANYDATA:b} alpha %{ANYDATA:c} "
                     "alpha zzz")
                     .value();
  TokenizedLog log;
  for (int i = 0; i < 200; ++i) add_token(log, "alpha");
  GrokMatchScratch scratch;
  EXPECT_FALSE(pattern.match_into(log, classifier_, nullptr, scratch));
  EXPECT_LT(scratch.steps, 10u);
}

TEST_F(GrokMatcherProperty, DeepPatternsNeedNoRecursionStack) {
  // 200k single-token fields: the recursive matcher would overflow the
  // stack (one frame per pattern token); the iterative one is flat.
  const size_t kDepth = 200'000;
  std::vector<GrokToken> ptoks;
  ptoks.reserve(kDepth);
  TokenizedLog log;
  log.tokens.reserve(kDepth);
  for (size_t i = 0; i < kDepth; ++i) {
    ptoks.push_back(GrokToken::make_field(Datatype::kNotSpace,
                                          "f" + std::to_string(i)));
    add_token(log, "t" + std::to_string(i % 7));
  }
  GrokPattern pattern(std::move(ptoks));
  GrokMatchScratch scratch;
  JsonObject out;
  ASSERT_TRUE(pattern.match_into(log, classifier_, &out, scratch));
  EXPECT_EQ(out.size(), kDepth);
}

}  // namespace
}  // namespace loglens
