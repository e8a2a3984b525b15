#include <gtest/gtest.h>

#include "detectors/field_range.h"
#include "detectors/keyword.h"

namespace loglens {
namespace {

// ---------------------------------------------------------------------------
// KeywordDetector
// ---------------------------------------------------------------------------

TEST(Keyword, FlagsSeverityKeywords) {
  KeywordDetector d;
  auto a = d.check("db write ERROR disk unreachable", "src", 42);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->type, AnomalyType::kKeywordAlert);
  EXPECT_EQ(a->timestamp_ms, 42);
  EXPECT_EQ(a->source, "src");
  ASSERT_EQ(a->logs.size(), 1u);
  EXPECT_NE(a->reason.find("error"), std::string::npos);
}

TEST(Keyword, CaseInsensitiveByDefault) {
  KeywordDetector d;
  EXPECT_TRUE(d.check("Fatal:", "s", 0).has_value());
  EXPECT_TRUE(d.check("EXCEPTION thrown", "s", 0).has_value());
  EXPECT_FALSE(d.check("all good here", "s", 0).has_value());
}

TEST(Keyword, SubstringsInsideTokensCount) {
  KeywordDetector d;
  EXPECT_TRUE(d.check("request timed-out: TimeoutException", "s", 0)
                  .has_value());
}

TEST(Keyword, TrainingAllowlistsNormalTokens) {
  KeywordDetector d;
  // A component legitimately named failover-manager logs constantly.
  d.observe_normal("2016/02/23 09:00:31 failover-manager heartbeat ok");
  EXPECT_EQ(d.allowlist_size(), 1u);
  EXPECT_FALSE(
      d.check("failover-manager heartbeat ok", "s", 0).has_value());
  // A *different* failure token still alarms.
  EXPECT_TRUE(d.check("write failed on disk 3", "s", 0).has_value());
}

TEST(Keyword, SerializationRoundTrip) {
  KeywordDetector d;
  d.observe_normal("failover ok");
  d.observe_normal("errorlog rotated");
  auto back = KeywordDetector::from_json(d.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->allowlist_size(), 2u);
  EXPECT_FALSE(back->check("failover ok", "s", 0).has_value());
  EXPECT_TRUE(back->check("real failure", "s", 0).has_value());
  EXPECT_FALSE(KeywordDetector::from_json(Json("bad")).ok());
}

// ---------------------------------------------------------------------------
// FieldRangeModel
// ---------------------------------------------------------------------------

ParsedLog plog(int pattern, std::initializer_list<std::pair<const char*, const char*>> fields) {
  ParsedLog log;
  log.pattern_id = pattern;
  log.timestamp_ms = 1000;
  log.raw = "raw line";
  for (const auto& [k, v] : fields) log.fields.emplace_back(k, Json(v));
  return log;
}

FieldRangeModel trained_model(FieldRangeOptions opts = {.margin = 0.0,
                                                        .min_samples = 3}) {
  FieldRangeModel m(opts);
  for (int i = 0; i <= 10; ++i) {
    m.learn(plog(1, {{"latency", std::to_string(100 + i * 10).c_str()},
                     {"user", "alice"}}));
  }
  return m;
}

TEST(FieldRange, LearnsTightBounds) {
  FieldRangeModel m = trained_model();
  EXPECT_EQ(m.tracked_fields(), 1u);  // "user" is non-numeric
  // In-range value: silent.
  EXPECT_TRUE(m.check(plog(1, {{"latency", "150"}}), "s").empty());
  EXPECT_TRUE(m.check(plog(1, {{"latency", "100"}}), "s").empty());
  EXPECT_TRUE(m.check(plog(1, {{"latency", "200"}}), "s").empty());
}

TEST(FieldRange, FlagsOutOfRange) {
  FieldRangeModel m = trained_model();
  auto high = m.check(plog(1, {{"latency", "5000"}}), "s");
  ASSERT_EQ(high.size(), 1u);
  EXPECT_EQ(high[0].type, AnomalyType::kValueOutOfRange);
  EXPECT_NE(high[0].reason.find("latency"), std::string::npos);
  auto low = m.check(plog(1, {{"latency", "3"}}), "s");
  EXPECT_EQ(low.size(), 1u);
}

TEST(FieldRange, MarginWidensBounds) {
  FieldRangeModel m = trained_model({.margin = 0.5, .min_samples = 3});
  // Span is 100; margin 0.5 allows [50, 250].
  EXPECT_TRUE(m.check(plog(1, {{"latency", "240"}}), "s").empty());
  EXPECT_FALSE(m.check(plog(1, {{"latency", "260"}}), "s").empty());
}

TEST(FieldRange, MinSamplesSuppressesThinEvidence) {
  FieldRangeModel m({.margin = 0.0, .min_samples = 100});
  for (int i = 0; i < 5; ++i) m.learn(plog(1, {{"x", "10"}}));
  EXPECT_TRUE(m.check(plog(1, {{"x", "999999"}}), "s").empty());
}

TEST(FieldRange, PerPatternIsolation) {
  FieldRangeModel m({.margin = 0.0, .min_samples = 1});
  for (int i = 0; i < 5; ++i) m.learn(plog(1, {{"v", "10"}}));
  for (int i = 0; i < 5; ++i) m.learn(plog(2, {{"v", "1000"}}));
  // 1000 is fine for pattern 2, anomalous for pattern 1.
  EXPECT_FALSE(m.check(plog(1, {{"v", "1000"}}), "s").empty());
  EXPECT_TRUE(m.check(plog(2, {{"v", "1000"}}), "s").empty());
}

TEST(FieldRange, UnknownFieldsAndNonNumericIgnored) {
  FieldRangeModel m = trained_model();
  EXPECT_TRUE(m.check(plog(1, {{"other", "999999"}}), "s").empty());
  EXPECT_TRUE(m.check(plog(1, {{"latency", "fast"}}), "s").empty());
  EXPECT_TRUE(m.check(plog(9, {{"latency", "999999"}}), "s").empty());
}

TEST(FieldRange, NegativeAndFractionalValues) {
  FieldRangeModel m({.margin = 0.0, .min_samples = 2});
  m.learn(plog(1, {{"t", "-5.5"}}));
  m.learn(plog(1, {{"t", "5.5"}}));
  EXPECT_TRUE(m.check(plog(1, {{"t", "0.0"}}), "s").empty());
  EXPECT_FALSE(m.check(plog(1, {{"t", "-6.0"}}), "s").empty());
}

TEST(FieldRange, SerializationRoundTrip) {
  FieldRangeModel m = trained_model();
  auto back = FieldRangeModel::from_json(m.to_json(),
                                         {.margin = 0.0, .min_samples = 3});
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value(), m);
  EXPECT_FALSE(back->check(plog(1, {{"latency", "5000"}}), "s").empty());
  EXPECT_FALSE(FieldRangeModel::from_json(Json("nope")).ok());
  JsonArray bad;
  bad.emplace_back(Json(JsonObject{{"pattern_id", Json(1)}}));
  EXPECT_FALSE(FieldRangeModel::from_json(Json(std::move(bad))).ok());
}

TEST(FieldRange, ZeroSpanRangeUsesValueMargin) {
  FieldRangeModel m({.margin = 0.1, .min_samples = 2});
  for (int i = 0; i < 5; ++i) m.learn(plog(1, {{"c", "100"}}));
  EXPECT_TRUE(m.check(plog(1, {{"c", "105"}}), "s").empty());   // within 10%
  EXPECT_FALSE(m.check(plog(1, {{"c", "120"}}), "s").empty());  // beyond
}

}  // namespace
}  // namespace loglens
