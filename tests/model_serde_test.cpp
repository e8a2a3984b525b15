#include "service/model.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "service/wire.h"

namespace loglens {
namespace {

std::vector<GrokPattern> sample_patterns() {
  std::vector<GrokPattern> out;
  auto p1 = GrokPattern::parse(
      "%{DATETIME:t} %{IP:ip} login %{NOTSPACE:user}");
  p1->assign_field_ids(1);
  auto p2 = GrokPattern::parse("start %{ANYDATA:body} end");
  p2->assign_field_ids(2);
  out.push_back(std::move(p1.value()));
  out.push_back(std::move(p2.value()));
  return out;
}

SequenceModel sample_sequence() {
  SequenceModel m;
  m.id_fields = {{1, "user"}, {2, "body"}};
  Automaton a;
  a.id = 1;
  a.begin_patterns = {1};
  a.end_patterns = {2};
  a.states[1] = {1, 1, 2};
  a.states[2] = {2, 1, 1};
  a.min_duration_ms = 10;
  a.max_duration_ms = 5000;
  a.transitions = {{1, 2}};
  a.training_instances = 9;
  m.automata.push_back(std::move(a));
  return m;
}

TEST(PatternSerde, RoundTrip) {
  auto patterns = sample_patterns();
  Json j = patterns_to_json(patterns);
  auto back = patterns_from_json(j);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].to_string(), patterns[0].to_string());
  EXPECT_EQ((*back)[0].id(), 1);
  EXPECT_EQ((*back)[1].id(), 2);
}

TEST(PatternSerde, RejectsBadShapes) {
  EXPECT_FALSE(patterns_from_json(Json("nope")).ok());
  JsonArray arr;
  arr.emplace_back(Json(JsonObject{{"id", Json(1)},
                                   {"grok", Json("%{BAD:x}")}}));
  EXPECT_FALSE(patterns_from_json(Json(std::move(arr))).ok());
}

TEST(CompositeModelSerde, FullRoundTrip) {
  CompositeModel m;
  m.patterns = sample_patterns();
  m.sequence = sample_sequence();
  Json j = m.to_json();
  auto text_back = Json::parse(j.dump());
  ASSERT_TRUE(text_back.ok());
  auto back = CompositeModel::from_json(text_back.value());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->sequence, m.sequence);
  ASSERT_EQ(back->patterns.size(), m.patterns.size());
  for (size_t i = 0; i < m.patterns.size(); ++i) {
    EXPECT_EQ(back->patterns[i].to_string(), m.patterns[i].to_string());
  }
}

TEST(CompositeModelSerde, EmptyModel) {
  CompositeModel empty;
  auto back = CompositeModel::from_json(empty.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->patterns.empty());
  EXPECT_TRUE(back->sequence.automata.empty());
}

TEST(CompositeModelSerde, MissingPatternsRejected) {
  EXPECT_FALSE(CompositeModel::from_json(Json(JsonObject{})).ok());
  EXPECT_FALSE(CompositeModel::from_json(Json(7)).ok());
}

// No keyword model writes "keywords": {} and loads back as none; a learned
// one writes KeywordDetector::to_json and loads back equal.
TEST(CompositeModelSerde, KeywordModelRoundTrips) {
  CompositeModel m;
  EXPECT_EQ(m.to_json().find("keywords")->dump(), "{}");
  auto back = CompositeModel::from_json(m.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->keyword_model.has_value());

  KeywordDetector& keywords = m.keyword_model.emplace();
  keywords.observe_normal("failover-manager rotated errorlog");
  EXPECT_EQ(m.to_json().find("keywords")->dump(), keywords.to_json().dump());
  back = CompositeModel::from_json(m.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->keyword_model, m.keyword_model);

  // An empty allowlist is still a keyword model: every keyword token alerts.
  m.keyword_model.emplace();
  back = CompositeModel::from_json(m.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->keyword_model.has_value());

  Json bad = m.to_json();
  bad.set("keywords", Json(7));
  EXPECT_FALSE(CompositeModel::from_json(bad).ok());
}

TEST(CompositeModelSerde, TokenizerRoundTrips) {
  CompositeModel m;
  m.patterns = sample_patterns();
  m.tokenizer.delimiters = " ,;";
  m.tokenizer.split_rules = {{"([0-9]+)(KB)", "$1 $2"}, {"(x)=(y)", "$1 $2"}};
  m.tokenizer.timestamp_formats = {"yyyy.MM.dd-HH:mm:ss"};
  auto text_back = Json::parse(m.to_json().dump());
  ASSERT_TRUE(text_back.ok());
  auto back = CompositeModel::from_json(text_back.value());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->tokenizer, m.tokenizer);
  // The model parses with it: "123KB" splits, ',' delimits.
  TokenizedLog log = back->make_preprocessor().process("read,123KB");
  ASSERT_EQ(log.tokens.size(), 3u);
  EXPECT_EQ(log.token_text(1), "123");
  EXPECT_EQ(log.token_text(2), "KB");
}

// A default tokenizer writes no section, so default-tokenizer models keep
// the JSON (and digests) they had before models carried one, and model
// files written before then load with the defaults.
TEST(CompositeModelSerde, ModelWithoutTokenizerLoadsDefaults) {
  CompositeModel m;
  m.patterns = sample_patterns();
  m.sequence = sample_sequence();
  Json j = m.to_json();
  EXPECT_EQ(j.find("tokenizer"), nullptr);
  auto back = CompositeModel::from_json(j);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->tokenizer, PreprocessorOptions{});
  // A partial section keeps the defaults for the keys it leaves out.
  j.set("tokenizer",
        Json(JsonObject{{"timestamp_formats", Json(JsonArray{Json("yyyy")})}}));
  back = CompositeModel::from_json(j);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->tokenizer.delimiters, PreprocessorOptions{}.delimiters);
  EXPECT_EQ(back->tokenizer.timestamp_formats,
            std::vector<std::string>{"yyyy"});
}

TEST(CompositeModelSerde, BadTokenizerRejected) {
  CompositeModel m;
  m.patterns = sample_patterns();
  m.tokenizer.split_rules = {{"([0-9]+", "$1"}};
  EXPECT_FALSE(CompositeModel::from_json(m.to_json()).ok());
  EXPECT_THROW(m.make_preprocessor(), std::invalid_argument);

  Json j = CompositeModel{}.to_json();
  j.set("tokenizer", Json("nope"));
  EXPECT_FALSE(CompositeModel::from_json(j).ok());
  j.set("tokenizer",
        Json(JsonObject{{"split_rules",
                         Json(JsonArray{Json(JsonObject{{"match", Json(1)}})})}}));
  EXPECT_FALSE(CompositeModel::from_json(j).ok());
  j.set("tokenizer", Json(JsonObject{{"delimiters", Json(7)}}));
  EXPECT_FALSE(CompositeModel::from_json(j).ok());
  j.set("tokenizer",
        Json(JsonObject{{"timestamp_formats", Json(JsonArray{Json("")})}}));
  EXPECT_FALSE(CompositeModel::from_json(j).ok());
}

TEST(Wire, ParsedLogRoundTrip) {
  ParsedLog log;
  log.pattern_id = 3;
  log.timestamp_ms = 1456218031000;
  log.raw = "the raw line";
  log.fields.emplace_back("user", Json("u1"));
  log.fields.emplace_back("bytes", Json("123"));
  ParsedLog sent = log;
  Message m = parsed_to_message(std::move(sent), "u1", "D1");
  EXPECT_EQ(m.key, "u1");
  EXPECT_EQ(m.source, "D1");
  EXPECT_EQ(m.timestamp_ms, log.timestamp_ms);
  EXPECT_EQ(m.tag, MessageTag::kData);
  EXPECT_TRUE(m.value.empty());
  const ParsedLog* back = parsed_payload_view(m);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->pattern_id, 3);
  EXPECT_EQ(back->timestamp_ms, log.timestamp_ms);
  EXPECT_EQ(back->raw, "the raw line");
  EXPECT_EQ(back->fields, log.fields);
  // A parsed log is not an anomaly.
  EXPECT_FALSE(anomaly_from_message(m).ok());
}

TEST(Wire, AnomalyRoundTrip) {
  Anomaly a;
  a.type = AnomalyType::kOccurrenceViolation;
  a.reason = "too many";
  a.timestamp_ms = 99;
  a.source = "D2";
  a.event_id = "ev-1";
  a.automaton_id = 4;
  a.logs = {"l1"};
  Message m = anomaly_to_message(a);
  EXPECT_EQ(m.tag, MessageTag::kAnomaly);
  EXPECT_EQ(m.key, "ev-1");
  EXPECT_TRUE(m.value.empty());
  auto back = anomaly_from_message(m);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), a);
  // An anomaly is not a parsed log.
  EXPECT_EQ(parsed_payload_view(m), nullptr);
}

TEST(Wire, MalformedPayloadRejected) {
  // A message whose body is text carries no record, even when that text is
  // a well-formed anomaly or parsed-log document.
  Message malformed;
  malformed.value = "{not json";
  EXPECT_EQ(parsed_payload_view(malformed), nullptr);
  EXPECT_FALSE(anomaly_from_message(malformed).ok());

  Anomaly a;
  a.type = AnomalyType::kUnparsedLog;
  a.source = "D1";
  Message anomaly_json;
  anomaly_json.tag = MessageTag::kAnomaly;
  anomaly_json.value = a.to_json().dump();
  EXPECT_FALSE(anomaly_from_message(anomaly_json).ok());

  Message parsed_json;
  parsed_json.value =
      R"({"pattern_id":3,"ts":99,"raw":"the raw line","fields":{}})";
  EXPECT_EQ(parsed_payload_view(parsed_json), nullptr);
  EXPECT_FALSE(anomaly_from_message(parsed_json).ok());
}

}  // namespace
}  // namespace loglens
