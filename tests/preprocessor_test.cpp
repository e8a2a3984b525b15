#include "tokenize/preprocessor.h"

#include <gtest/gtest.h>

#include "common/time.h"

namespace loglens {
namespace {

Preprocessor make(PreprocessorOptions opts = {}) {
  auto p = Preprocessor::create(std::move(opts));
  EXPECT_TRUE(p.ok()) << p.status().message();
  return std::move(p.value());
}

TEST(Preprocess, PaperLogExample) {
  Preprocessor p = make();
  TokenizedLog log = p.process("2016/02/23 09:00:31.000 127.0.0.1 login user1");
  ASSERT_EQ(log.tokens.size(), 4u);
  EXPECT_EQ(log.tokens[0].type, Datatype::kDateTime);
  EXPECT_EQ(log.token_text(0), "2016/02/23 09:00:31.000");
  EXPECT_EQ(log.tokens[1].type, Datatype::kIp);
  EXPECT_EQ(log.tokens[2].type, Datatype::kWord);
  EXPECT_EQ(log.tokens[3].type, Datatype::kNotSpace);
  EXPECT_EQ(log.timestamp_ms,
            to_epoch_millis(CivilTime{2016, 2, 23, 9, 0, 31, 0}));
  EXPECT_EQ(log.raw(), "2016/02/23 09:00:31.000 127.0.0.1 login user1");
}

TEST(Preprocess, TimestampUnification) {
  // "Feb 23, 2016 09:00:31" (4 raw tokens) becomes one canonical DATETIME.
  Preprocessor p = make();
  TokenizedLog log = p.process("Feb 23, 2016 09:00:31 server started");
  ASSERT_EQ(log.tokens.size(), 3u);
  EXPECT_EQ(log.token_text(0), "2016/02/23 09:00:31.000");
  EXPECT_EQ(log.tokens[0].type, Datatype::kDateTime);
  EXPECT_EQ(log.token_text(1), "server");
}

TEST(Preprocess, FirstTimestampWins) {
  Preprocessor p = make();
  TokenizedLog log =
      p.process("2016/02/23 09:00:31 moved to 2016/02/23 10:00:00");
  EXPECT_EQ(log.timestamp_ms,
            to_epoch_millis(CivilTime{2016, 2, 23, 9, 0, 31, 0}));
  // Both are recognized as DATETIME tokens.
  int datetimes = 0;
  for (const auto& t : log.tokens) {
    if (t.type == Datatype::kDateTime) ++datetimes;
  }
  EXPECT_EQ(datetimes, 2);
}

TEST(Preprocess, NoTimestamp) {
  Preprocessor p = make();
  TokenizedLog log = p.process("plain words only");
  EXPECT_EQ(log.timestamp_ms, -1);
  ASSERT_EQ(log.tokens.size(), 3u);
  for (const auto& t : log.tokens) {
    EXPECT_EQ(t.type, Datatype::kWord);
  }
}

TEST(Preprocess, EmptyAndWhitespaceOnly) {
  Preprocessor p = make();
  EXPECT_TRUE(p.process("").tokens.empty());
  EXPECT_TRUE(p.process("   \t  ").tokens.empty());
}

TEST(Preprocess, CustomDelimiters) {
  PreprocessorOptions opts;
  opts.delimiters = " ,;";
  Preprocessor p = make(std::move(opts));
  TokenizedLog log = p.process("a,b;c d");
  ASSERT_EQ(log.tokens.size(), 4u);
  EXPECT_EQ(log.token_text(0), "a");
  EXPECT_EQ(log.token_text(2), "c");
}

TEST(Preprocess, SplitRulePaperExample) {
  // "123KB" -> "123" "KB".
  PreprocessorOptions opts;
  opts.split_rules.push_back({"([0-9]+)(KB)", "$1 $2"});
  Preprocessor p = make(std::move(opts));
  TokenizedLog log = p.process("read 123KB done");
  ASSERT_EQ(log.tokens.size(), 4u);
  EXPECT_EQ(log.token_text(1), "123");
  EXPECT_EQ(log.tokens[1].type, Datatype::kNumber);
  EXPECT_EQ(log.token_text(2), "KB");
  EXPECT_EQ(log.tokens[2].type, Datatype::kWord);
}

TEST(Preprocess, SplitRuleOnlyAppliesOnFullTokenMatch) {
  PreprocessorOptions opts;
  opts.split_rules.push_back({"([0-9]+)(KB)", "$1 $2"});
  Preprocessor p = make(std::move(opts));
  // "x123KB" does not full-match the rule, so it stays one token.
  TokenizedLog log = p.process("x123KB");
  ASSERT_EQ(log.tokens.size(), 1u);
  EXPECT_EQ(log.token_text(0), "x123KB");
}

TEST(Preprocess, BadSplitRuleReported) {
  PreprocessorOptions opts;
  opts.split_rules.push_back({"([0-9]+", "$1"});
  EXPECT_FALSE(Preprocessor::create(std::move(opts)).ok());
}

TEST(Preprocess, BadTimestampFormatReported) {
  PreprocessorOptions opts;
  opts.timestamp_formats = {"yyyy/MM/dd", ""};
  EXPECT_FALSE(Preprocessor::create(std::move(opts)).ok());
}

TEST(Preprocess, UserTimestampFormats) {
  PreprocessorOptions opts;
  opts.timestamp_formats = {"yyyy.MM.dd-HH:mm:ss"};
  Preprocessor p = make(std::move(opts));
  TokenizedLog log = p.process("2016.02.23-09:00:31 boot");
  ASSERT_GE(log.tokens.size(), 1u);
  EXPECT_EQ(log.tokens[0].type, Datatype::kDateTime);
  // The default formats are replaced, so canonical input is NOT recognized.
  TokenizedLog log2 = p.process("2016/02/23 09:00:31 boot");
  EXPECT_EQ(log2.timestamp_ms, -1);
}

TEST(Preprocess, IsoTimestampSingleToken) {
  Preprocessor p = make();
  TokenizedLog log = p.process("2016-02-23T09:00:31.500 nova boot");
  ASSERT_EQ(log.tokens.size(), 3u);
  EXPECT_EQ(log.tokens[0].type, Datatype::kDateTime);
  EXPECT_EQ(log.token_text(0), "2016/02/23 09:00:31.500");
}

TEST(Preprocess, TokensAreSpansOfOneBuffer) {
  // The line comes first in the buffer; a plain token spans its bytes of
  // it, and the texts tokenization makes (split-rule pieces, canonical
  // DATETIMEs) follow the line.
  PreprocessorOptions opts;
  opts.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  Preprocessor p = make(opts);
  const std::string line = "Feb 23, 2016 09:00:31 read 123KB done";
  TokenizedLog log = p.process(line);
  EXPECT_EQ(log.raw(), line);
  EXPECT_EQ(log.raw_size, line.size());
  ASSERT_EQ(log.tokens.size(), 5u);
  EXPECT_EQ(log.token_text(0), "2016/02/23 09:00:31.000");
  EXPECT_EQ(log.token_text(1), "read");
  EXPECT_EQ(log.token_text(2), "123");
  EXPECT_EQ(log.token_text(3), "KB");
  EXPECT_EQ(log.token_text(4), "done");
  EXPECT_EQ(log.tokens[1].begin, line.find("read"));
  EXPECT_EQ(log.tokens[4].begin, line.find("done"));
  for (size_t i : {0, 2, 3}) EXPECT_GE(log.tokens[i].begin, line.size());
  EXPECT_EQ(log.text.size(), line.size() + 3 + 2 + 23);

  // A refill drops everything the last line left behind.
  p.process_into("plain", log);
  EXPECT_EQ(log.text, "plain");
  ASSERT_EQ(log.tokens.size(), 1u);
  EXPECT_EQ(log.timestamp_ms, -1);
}

}  // namespace
}  // namespace loglens
