#include "grok/pattern.h"

#include <gtest/gtest.h>

namespace loglens {
namespace {

DatatypeClassifier& classifier() {
  static DatatypeClassifier c;
  return c;
}

TokenizedLog tokens_of(std::initializer_list<const char*> texts) {
  TokenizedLog out;
  for (const char* t : texts) out.push_token(t, classifier().classify(t));
  return out;
}

TEST(GrokParse, PaperExample) {
  auto p = GrokPattern::parse(
      "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}");
  ASSERT_TRUE(p.ok()) << p.status().message();
  ASSERT_EQ(p->size(), 5u);
  EXPECT_FALSE(p->tokens()[0].is_field ? false : true);
  EXPECT_EQ(p->tokens()[0].field.type, Datatype::kWord);
  EXPECT_EQ(p->tokens()[0].field.name, "Action");
  EXPECT_FALSE(p->tokens()[1].is_field);
  EXPECT_EQ(p->tokens()[1].literal, "DB");
  EXPECT_EQ(p->to_string(),
            "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}");
}

TEST(GrokParse, NamelessFieldAndErrors) {
  auto ok = GrokPattern::parse("%{WORD} x");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->tokens()[0].field.name.empty());
  EXPECT_FALSE(GrokPattern::parse("%{BOGUS:x}").ok());
  EXPECT_FALSE(GrokPattern::parse("%{WORD:x").ok());
  EXPECT_FALSE(GrokPattern::parse("").ok());
  EXPECT_FALSE(GrokPattern::parse("   ").ok());
}

TEST(GrokMatch, PaperConnectExample) {
  auto p = GrokPattern::parse(
      "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}");
  ASSERT_TRUE(p.ok());
  JsonObject fields;
  ASSERT_TRUE(p->match(tokens_of({"Connect", "DB", "127.0.0.1", "user",
                                  "abc123"}),
                       classifier(), &fields));
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].first, "Action");
  EXPECT_EQ(fields[0].second.as_string(), "Connect");
  EXPECT_EQ(fields[1].first, "Server");
  EXPECT_EQ(fields[1].second.as_string(), "127.0.0.1");
  EXPECT_EQ(fields[2].first, "UserName");
  EXPECT_EQ(fields[2].second.as_string(), "abc123");
}

TEST(GrokMatch, LiteralMismatch) {
  auto p = GrokPattern::parse("%{WORD:A} DB %{IP:S}");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->match(tokens_of({"Connect", "XX", "127.0.0.1"}),
                        classifier()));
  EXPECT_FALSE(p->match(tokens_of({"Connect", "DB"}), classifier()));
  EXPECT_FALSE(
      p->match(tokens_of({"Connect", "DB", "127.0.0.1", "extra"}),
               classifier()));
}

TEST(GrokMatch, FieldCoverage) {
  // A NOTSPACE field accepts WORD/NUMBER/IP values, but a WORD field
  // rejects non-word values.
  auto loose = GrokPattern::parse("%{NOTSPACE:x}");
  EXPECT_TRUE(loose->match(tokens_of({"hello"}), classifier()));
  EXPECT_TRUE(loose->match(tokens_of({"42"}), classifier()));
  auto strict = GrokPattern::parse("%{WORD:x}");
  EXPECT_TRUE(strict->match(tokens_of({"hello"}), classifier()));
  EXPECT_FALSE(strict->match(tokens_of({"42"}), classifier()));
  EXPECT_FALSE(strict->match(tokens_of({"user1"}), classifier()));
}

TEST(GrokMatch, DateTimeFieldMatchesOnlyDateTimeTokens) {
  auto p = GrokPattern::parse("%{DATETIME:t} %{WORD:w}");
  ASSERT_TRUE(p.ok());
  TokenizedLog toks;
  toks.push_token("2016/02/23 09:00:31.000", Datatype::kDateTime);
  toks.push_token("login", Datatype::kWord);
  JsonObject fields;
  EXPECT_TRUE(p->match(toks, classifier(), &fields));
  EXPECT_EQ(fields[0].second.as_string(), "2016/02/23 09:00:31.000");
  // A WORD token does not satisfy a DATETIME field.
  EXPECT_FALSE(p->match(tokens_of({"login", "login"}), classifier()));
}

TEST(GrokMatch, AnyDataSpansZeroOrMoreTokens) {
  auto p = GrokPattern::parse("start %{ANYDATA:body} end");
  ASSERT_TRUE(p.ok());
  JsonObject fields;
  ASSERT_TRUE(p->match(tokens_of({"start", "end"}), classifier(), &fields));
  EXPECT_EQ(fields[0].second.as_string(), "");
  ASSERT_TRUE(p->match(tokens_of({"start", "a", "b", "c", "end"}),
                       classifier(), &fields));
  EXPECT_EQ(fields[0].second.as_string(), "a b c");
  EXPECT_FALSE(p->match(tokens_of({"start", "a"}), classifier()));
}

TEST(GrokMatch, AnyDataBacktracksAcrossAnchors) {
  // The wildcard must not swallow the anchor token it needs later.
  auto p = GrokPattern::parse("%{ANYDATA:a} sep %{ANYDATA:b}");
  JsonObject fields;
  ASSERT_TRUE(p->match(tokens_of({"x", "sep", "y", "z"}), classifier(),
                       &fields));
  EXPECT_EQ(fields[0].second.as_string(), "x");
  EXPECT_EQ(fields[1].second.as_string(), "y z");
  // Lazy semantics: with two seps, the first anchors.
  ASSERT_TRUE(p->match(tokens_of({"sep", "sep"}), classifier(), &fields));
  EXPECT_EQ(fields[0].second.as_string(), "");
  EXPECT_EQ(fields[1].second.as_string(), "sep");
}

TEST(GrokSignature, FieldAndLiteralContributions) {
  auto p = GrokPattern::parse(
      "%{DATETIME:P1F1} %{IP:P1F2} %{WORD:P1F3} user1");
  ASSERT_TRUE(p.ok());
  // The paper's example: literal "user1" contributes NOTSPACE.
  EXPECT_EQ(p->signature(classifier()), "DATETIME IP WORD NOTSPACE");
}

TEST(GrokFieldIds, AssignedInSequence) {
  auto p = GrokPattern::parse("%{WORD} x %{NUMBER} %{IP:keep}");
  ASSERT_TRUE(p.ok());
  p->assign_field_ids(7);
  EXPECT_EQ(p->id(), 7);
  EXPECT_EQ(p->tokens()[0].field.name, "P7F1");
  EXPECT_EQ(p->tokens()[2].field.name, "P7F2");
  EXPECT_EQ(p->tokens()[3].field.name, "keep");  // existing names kept
}

TEST(GrokGenerality, ScoreOrdersSpecificity) {
  auto specific = GrokPattern::parse("%{WORD:a} %{NUMBER:b}");
  auto general = GrokPattern::parse("%{NOTSPACE:a} %{NOTSPACE:b}");
  auto wildcard = GrokPattern::parse("%{ANYDATA:a} %{NOTSPACE:b}");
  EXPECT_LT(specific->generality_score(), general->generality_score());
  EXPECT_LT(general->generality_score(), wildcard->generality_score());
  EXPECT_TRUE(wildcard->has_wildcard());
  EXPECT_FALSE(general->has_wildcard());
}

TEST(GrokRoundTrip, ParsePrintParse) {
  const char* texts[] = {
      "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}",
      "%{DATETIME:t} %{ANYDATA:rest}",
      "PDU = %{NUMBER:PDU}",
      "a b c",
  };
  for (const char* text : texts) {
    auto p1 = GrokPattern::parse(text);
    ASSERT_TRUE(p1.ok());
    auto p2 = GrokPattern::parse(p1->to_string());
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(p1->to_string(), p2->to_string());
  }
}

}  // namespace
}  // namespace loglens
