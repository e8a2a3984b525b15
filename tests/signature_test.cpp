#include "parser/signature.h"

#include <gtest/gtest.h>

namespace loglens {
namespace {

using DT = Datatype;

std::vector<DT> sig(std::initializer_list<DT> types) { return types; }

TEST(SignatureKey, JoinsNames) {
  EXPECT_EQ(signature_key(sig({DT::kDateTime, DT::kIp, DT::kWord,
                               DT::kNotSpace})),
            "DATETIME IP WORD NOTSPACE");
  EXPECT_EQ(signature_key(sig({})), "");
}

TEST(LogSignature, FromTokenizedLog) {
  TokenizedLog log;
  log.push_token("2016/02/23 09:00:31.000", DT::kDateTime);
  log.push_token("127.0.0.1", DT::kIp);
  log.push_token("login", DT::kWord);
  EXPECT_EQ(log_signature(log), sig({DT::kDateTime, DT::kIp, DT::kWord}));
}

TEST(PatternSignature, PaperExample) {
  DatatypeClassifier c;
  auto p = GrokPattern::parse(
      "%{DATETIME:P1F1} %{IP:P1F2} %{WORD:P1F3} user1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(pattern_signature(p.value(), c),
            sig({DT::kDateTime, DT::kIp, DT::kWord, DT::kNotSpace}));
}

TEST(SignatureMatch, ExactEquality) {
  EXPECT_TRUE(signature_match(sig({DT::kWord, DT::kNumber}),
                              sig({DT::kWord, DT::kNumber})));
  EXPECT_FALSE(signature_match(sig({DT::kWord}), sig({DT::kNumber})));
  EXPECT_FALSE(signature_match(sig({DT::kWord, DT::kWord}),
                               sig({DT::kWord})));
  EXPECT_FALSE(signature_match(sig({DT::kWord}),
                               sig({DT::kWord, DT::kWord})));
}

TEST(SignatureMatch, EmptyCases) {
  EXPECT_TRUE(signature_match(sig({}), sig({})));
  EXPECT_FALSE(signature_match(sig({DT::kWord}), sig({})));
  EXPECT_TRUE(signature_match(sig({}), sig({DT::kAnyData})));
  EXPECT_FALSE(signature_match(sig({}), sig({DT::kWord})));
}

TEST(SignatureMatch, CoverageDirectional) {
  // Log WORD is covered by pattern NOTSPACE, not vice versa.
  EXPECT_TRUE(signature_match(sig({DT::kWord}), sig({DT::kNotSpace})));
  EXPECT_FALSE(signature_match(sig({DT::kNotSpace}), sig({DT::kWord})));
  EXPECT_TRUE(signature_match(sig({DT::kIp}), sig({DT::kNotSpace})));
  EXPECT_TRUE(signature_match(sig({DT::kNumber}), sig({DT::kNotSpace})));
  EXPECT_FALSE(signature_match(sig({DT::kDateTime}), sig({DT::kNotSpace})));
}

TEST(SignatureMatch, WildcardSwallowsRuns) {
  // ANYDATA spans zero or more log tokens.
  EXPECT_TRUE(signature_match(sig({DT::kWord, DT::kWord, DT::kWord}),
                              sig({DT::kAnyData})));
  EXPECT_TRUE(signature_match(
      sig({DT::kWord, DT::kNumber, DT::kIp, DT::kWord}),
      sig({DT::kWord, DT::kAnyData, DT::kWord})));
  EXPECT_TRUE(signature_match(sig({DT::kWord, DT::kWord}),
                              sig({DT::kWord, DT::kAnyData, DT::kWord})));
  EXPECT_FALSE(signature_match(sig({DT::kNumber, DT::kWord}),
                               sig({DT::kWord, DT::kAnyData})));
}

TEST(SignatureMatch, LeadingWildcardMatchesZero) {
  // The corrected row-0 seeding: a leading wildcard may match nothing.
  EXPECT_TRUE(signature_match(sig({DT::kWord}),
                              sig({DT::kAnyData, DT::kWord})));
  EXPECT_TRUE(signature_match(sig({DT::kWord}),
                              sig({DT::kAnyData, DT::kAnyData, DT::kWord})));
  EXPECT_TRUE(signature_match(sig({}), sig({DT::kAnyData, DT::kAnyData})));
}

TEST(SignatureMatch, MultipleWildcards) {
  EXPECT_TRUE(signature_match(
      sig({DT::kWord, DT::kNumber, DT::kWord, DT::kIp, DT::kWord}),
      sig({DT::kAnyData, DT::kNumber, DT::kAnyData, DT::kWord})));
  EXPECT_FALSE(signature_match(
      sig({DT::kWord, DT::kWord}),
      sig({DT::kAnyData, DT::kNumber, DT::kAnyData})));
}

TEST(SignatureMatch, WildcardAtEnd) {
  EXPECT_TRUE(signature_match(
      sig({DT::kDateTime, DT::kWord, DT::kWord, DT::kNumber}),
      sig({DT::kDateTime, DT::kAnyData})));
  EXPECT_TRUE(signature_match(sig({DT::kDateTime}),
                              sig({DT::kDateTime, DT::kAnyData})));
}

// Exhaustive equivalence against a reference backtracking matcher over all
// short signatures (property test).
bool reference_match(std::span<const DT> log, std::span<const DT> pat) {
  if (pat.empty()) return log.empty();
  if (pat.front() == DT::kAnyData) {
    for (size_t take = 0; take <= log.size(); ++take) {
      if (reference_match(log.subspan(take), pat.subspan(1))) return true;
    }
    return false;
  }
  if (log.empty()) return false;
  if (log.front() != pat.front() && !is_covered(log.front(), pat.front())) {
    return false;
  }
  return reference_match(log.subspan(1), pat.subspan(1));
}

TEST(SignatureMatch, ExhaustiveAgainstReference) {
  const DT alphabet[] = {DT::kWord, DT::kNumber, DT::kNotSpace, DT::kAnyData};
  // All log signatures of length <= 3 over {WORD,NUMBER,NOTSPACE} x all
  // pattern signatures of length <= 3 over the alphabet incl. ANYDATA.
  std::vector<std::vector<DT>> logs{{}};
  for (size_t len = 1; len <= 3; ++len) {
    size_t count = 1;
    for (size_t i = 0; i < len; ++i) count *= 3;
    for (size_t v = 0; v < count; ++v) {
      std::vector<DT> s;
      size_t x = v;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(alphabet[x % 3]);
        x /= 3;
      }
      logs.push_back(std::move(s));
    }
  }
  std::vector<std::vector<DT>> pats{{}};
  for (size_t len = 1; len <= 3; ++len) {
    size_t count = 1;
    for (size_t i = 0; i < len; ++i) count *= 4;
    for (size_t v = 0; v < count; ++v) {
      std::vector<DT> s;
      size_t x = v;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(alphabet[x % 4]);
        x /= 4;
      }
      pats.push_back(std::move(s));
    }
  }
  size_t checked = 0;
  for (const auto& l : logs) {
    for (const auto& p : pats) {
      ASSERT_EQ(signature_match(l, p), reference_match(l, p))
          << signature_key(l) << " vs " << signature_key(p);
      ++checked;
    }
  }
  EXPECT_GT(checked, 3000u);
}

}  // namespace
}  // namespace loglens
