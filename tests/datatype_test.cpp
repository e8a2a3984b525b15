#include "grok/datatype.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "regexlite/regex.h"

namespace loglens {
namespace {

TEST(DatatypeNames, RoundTrip) {
  for (Datatype t : {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                     Datatype::kNotSpace, Datatype::kDateTime,
                     Datatype::kAnyData}) {
    Datatype back;
    ASSERT_TRUE(datatype_from_name(datatype_name(t), back));
    EXPECT_EQ(back, t);
  }
  Datatype out;
  EXPECT_FALSE(datatype_from_name("BOGUS", out));
}

TEST(Coverage, PaperExamples) {
  // isCovered("WORD", "NOTSPACE") is true; the reverse is false.
  EXPECT_TRUE(is_covered(Datatype::kWord, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kNotSpace, Datatype::kWord));
}

TEST(Coverage, LatticeShape) {
  for (Datatype t : {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                     Datatype::kNotSpace, Datatype::kDateTime,
                     Datatype::kAnyData}) {
    EXPECT_TRUE(is_covered(t, t));            // reflexive
    EXPECT_TRUE(is_covered(t, Datatype::kAnyData));  // top element
  }
  EXPECT_TRUE(is_covered(Datatype::kNumber, Datatype::kNotSpace));
  EXPECT_TRUE(is_covered(Datatype::kIp, Datatype::kNotSpace));
  // DATETIME contains a space, so it is NOT under NOTSPACE.
  EXPECT_FALSE(is_covered(Datatype::kDateTime, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kAnyData, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kWord, Datatype::kNumber));
  EXPECT_FALSE(is_covered(Datatype::kWord, Datatype::kIp));
}

TEST(Coverage, TransitivityProperty) {
  const Datatype all[] = {Datatype::kWord,     Datatype::kNumber,
                          Datatype::kIp,       Datatype::kNotSpace,
                          Datatype::kDateTime, Datatype::kAnyData};
  for (Datatype a : all) {
    for (Datatype b : all) {
      for (Datatype c : all) {
        if (is_covered(a, b) && is_covered(b, c)) {
          EXPECT_TRUE(is_covered(a, c))
              << datatype_name(a) << " <= " << datatype_name(b)
              << " <= " << datatype_name(c);
        }
      }
    }
  }
}

TEST(Generality, OrderedByCoverage) {
  // If a is strictly covered by b, a must be strictly less general.
  const Datatype all[] = {Datatype::kWord,     Datatype::kNumber,
                          Datatype::kIp,       Datatype::kNotSpace,
                          Datatype::kDateTime, Datatype::kAnyData};
  for (Datatype a : all) {
    for (Datatype b : all) {
      if (a != b && is_covered(a, b)) {
        EXPECT_LT(generality(a), generality(b));
      }
    }
  }
}

TEST(Classifier, TableOneRules) {
  DatatypeClassifier c;
  EXPECT_EQ(c.classify("Connect"), Datatype::kWord);
  EXPECT_EQ(c.classify("abc"), Datatype::kWord);
  EXPECT_EQ(c.classify("42"), Datatype::kNumber);
  EXPECT_EQ(c.classify("-3.5"), Datatype::kNumber);
  EXPECT_EQ(c.classify("127.0.0.1"), Datatype::kIp);
  EXPECT_EQ(c.classify("user1"), Datatype::kNotSpace);
  EXPECT_EQ(c.classify("abc123"), Datatype::kNotSpace);
  EXPECT_EQ(c.classify("a-b"), Datatype::kNotSpace);
}

TEST(Classifier, MostSpecificWins) {
  DatatypeClassifier c;
  // "123" is both NUMBER and NOTSPACE; NUMBER is more specific.
  EXPECT_EQ(c.classify("123"), Datatype::kNumber);
  // An IP is also NOTSPACE but not NUMBER or WORD.
  EXPECT_EQ(c.classify("10.0.0.1"), Datatype::kIp);
}

TEST(Classifier, MatchesRespectsCoverage) {
  DatatypeClassifier c;
  EXPECT_TRUE(c.matches("hello", Datatype::kWord));
  EXPECT_TRUE(c.matches("hello", Datatype::kNotSpace));
  EXPECT_TRUE(c.matches("hello", Datatype::kAnyData));
  EXPECT_FALSE(c.matches("hello", Datatype::kNumber));
  EXPECT_FALSE(c.matches("two words", Datatype::kNotSpace));
  EXPECT_TRUE(c.matches("2016/02/23 09:00:31.000", Datatype::kDateTime));
  EXPECT_FALSE(c.matches("hello", Datatype::kDateTime));
}

// Random token over letters, digits, '-', '.' and punctuation. Half are
// dotted digit groups (four groups half the time; an optional sign and an
// optional stray byte), so NUMBER and IP boundaries come up often; the rest
// are runs of one character class each.
std::string random_token(Rng& rng) {
  static constexpr std::string_view kClasses[] = {
      "abcxyzABCXYZ", "0123456789", "-", ".", ":/_,#"};
  std::string t;
  if (rng.below(2) == 0) {
    if (rng.below(4) == 0) t += '-';
    const int64_t groups = rng.below(2) == 0 ? 4 : rng.range(1, 5);
    for (int64_t g = 0; g < groups; ++g) {
      if (g > 0) t += '.';
      const int64_t digits = rng.range(0, 4);
      for (int64_t d = 0; d < digits; ++d) {
        t += static_cast<char>('0' + rng.below(10));
      }
    }
    if (rng.below(5) == 0 && !t.empty()) {
      const std::string_view cls = kClasses[rng.below(5)];
      t[rng.below(t.size())] = cls[rng.below(cls.size())];
    }
  } else {
    const int64_t runs = rng.range(1, 4);
    for (int64_t r = 0; r < runs; ++r) {
      const std::string_view cls = kClasses[rng.below(5)];
      const int64_t len = rng.range(1, 4);
      for (int64_t i = 0; i < len; ++i) t += cls[rng.below(cls.size())];
    }
  }
  return t.empty() ? "-" : t;
}

// The hand-written scanners behind matches() accept exactly the language of
// the Table I regexes, which are the executable spec.
TEST(Classifier, ScannersEqualTableOneRegexes) {
  const std::pair<Datatype, Regex> spec[] = {
      {Datatype::kWord, Regex::compile_or_die("[a-zA-Z]+")},
      {Datatype::kNumber, Regex::compile_or_die("-?[0-9]+(\\.[0-9]+)?")},
      {Datatype::kIp,
       Regex::compile_or_die(
           "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}")},
  };
  std::vector<std::string> tokens = {
      "-",   "1.",       ".5",        "-1.5",  "999.1.1.1", "1.2.3.4.5",
      "0",   "-0",       "1.2.3.4",   "1..2",  "255.255.255.255",
      "a",   "abc-def",  "12a",       "--1",   "1.2.3.",    ".1.2.3.4",
  };
  Rng rng(20160223);
  for (int i = 0; i < 20000; ++i) tokens.push_back(random_token(rng));

  DatatypeClassifier c;
  size_t accepted[3] = {0, 0, 0};
  for (const std::string& tok : tokens) {
    for (size_t k = 0; k < 3; ++k) {
      const auto& [type, regex] = spec[k];
      const bool want = regex.full_match(tok);
      ASSERT_EQ(c.matches(tok, type), want)
          << datatype_name(type) << " on \"" << tok << "\"";
      accepted[k] += want ? 1 : 0;
    }
  }
  // The corpus reaches both sides of every boundary.
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_GT(accepted[k], 200u) << datatype_name(spec[k].first);
    EXPECT_LT(accepted[k], tokens.size() - 200)
        << datatype_name(spec[k].first);
  }
}

}  // namespace
}  // namespace loglens
