// The token representation shared by the tokenizer, pattern discovery, and
// the parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "grok/datatype.h"

namespace loglens {

// A span of its log's text buffer (TokenizedLog::text). Positions only mean
// something within the log that holds the token, so only the tokenizer
// (src/tokenize/) and TokenizedLog::push_token construct one; everything
// else reads the text through TokenizedLog::text_of / token_text.
struct Token {
  uint32_t begin = 0;
  uint32_t size = 0;
  Datatype type = Datatype::kNotSpace;
};

// A raw log after preprocessing (Section III-A1/A2): delimiter splitting,
// sub-token split rules, timestamp recognition + unification, and datatype
// classification.
//
// The log holds its text once: `text` is the raw line followed by every
// text tokenization created (canonical DATETIMEs, split-rule rewrites), and
// each token is a span of it.
struct TokenizedLog {
  std::string text;
  std::vector<Token> tokens;
  uint32_t raw_size = 0;      // text[0, raw_size) is the original log line
  int64_t timestamp_ms = -1;  // first recognized timestamp, -1 if none

  std::string_view raw() const { return {text.data(), raw_size}; }
  // Normalized text; the canonical form for DATETIME tokens.
  std::string_view text_of(const Token& t) const {
    return {text.data() + t.begin, t.size};
  }
  std::string_view token_text(size_t i) const { return text_of(tokens[i]); }

  // Appends a token whose text is a copy of `s` at the end of the buffer.
  void push_token(std::string_view s, Datatype type) {
    tokens.push_back(Token{static_cast<uint32_t>(text.size()),
                           static_cast<uint32_t>(s.size()), type});
    text.append(s);
  }
};

}  // namespace loglens
