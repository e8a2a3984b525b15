#include "tokenize/preprocessor.h"

#include "common/strings.h"
#include "common/time.h"

namespace loglens {

StatusOr<Preprocessor> Preprocessor::create(PreprocessorOptions options) {
  std::vector<CompiledRule> rules;
  rules.reserve(options.split_rules.size());
  for (const auto& spec : options.split_rules) {
    auto re = Regex::compile(spec.match);
    if (!re.ok()) {
      return StatusOr<Preprocessor>::Error("bad split rule '" + spec.match +
                                           "': " + re.status().message());
    }
    rules.push_back({std::move(re.value()), spec.rewrite});
  }
  for (const auto& format : options.timestamp_formats) {
    if (auto f = TimestampFormat::compile(format); !f.ok()) {
      return StatusOr<Preprocessor>::Error("bad timestamp format '" + format +
                                           "': " + f.status().message());
    }
  }
  return Preprocessor(std::move(options), std::move(rules));
}

Preprocessor::Preprocessor(PreprocessorOptions options,
                           std::vector<CompiledRule> rules)
    : options_(std::move(options)),
      rules_(std::move(rules)),
      recognizer_({}, options_.timestamp_formats) {
  for (unsigned char c : options_.delimiters) is_delim_[c] = true;
}

TokenizedLog Preprocessor::process(std::string_view raw) {
  TokenizedLog out;
  process_into(raw, out);
  return out;
}

void Preprocessor::process_into(std::string_view raw, TokenizedLog& out) {
  // Room for the line and one canonical DATETIME, the common case, so a
  // fresh buffer is allocated once.
  out.text.reserve(raw.size() + kCanonicalLength);
  out.text.assign(raw);
  out.raw_size = static_cast<uint32_t>(raw.size());
  out.timestamp_ms = -1;
  out.tokens.clear();

  // 1. Delimiter split. 2. Split rules (one pass; a rule's output pieces are
  // not re-fed through the rules, matching the paper's single rewrite step).
  // A plain token spans its bytes of the raw line; a rewrite's pieces are
  // appended to the buffer. The split walks `raw`, not out.text, so an
  // append cannot move the bytes under it. Types are set in step 4.
  for_each_delimited(raw, [&](std::string_view tok) {
    for (const auto& rule : rules_) {
      if (!rule.match.full_match(tok)) continue;
      const std::string rewritten = rule.match.replace_all(tok, rule.rewrite);
      for_each_split_any(rewritten, " ", [&](std::string_view piece) {
        out.push_token(piece, Datatype::kNotSpace);
      });
      return;
    }
    out.tokens.push_back(Token{static_cast<uint32_t>(tok.data() - raw.data()),
                               static_cast<uint32_t>(tok.size())});
  });
  views_.clear();
  for (const Token& t : out.tokens) views_.push_back(out.text_of(t));

  // 3+4. Timestamp recognition, then datatype classification. The tokens
  // compact in place (a timestamp spanning several pieces becomes one
  // token), so token nt is written only after piece i >= nt was read.
  const size_t np = views_.size();
  stamps_.clear();
  size_t nt = 0;
  size_t i = 0;
  while (i < np) {
    if (auto m = recognizer_.match_at(views_, i)) {
      stamps_.emplace_back(nt, m->epoch_ms);
      out.tokens[nt++].type = Datatype::kDateTime;
      if (out.timestamp_ms < 0) out.timestamp_ms = m->epoch_ms;
      i += m->span;
      continue;
    }
    Token& t = out.tokens[nt++];
    t = out.tokens[i];
    t.type = classifier_.classify(views_[i]);
    ++i;
  }
  out.tokens.resize(nt);

  // Each DATETIME's canonical text goes after everything the views read.
  for (const auto& [index, epoch_ms] : stamps_) {
    Token& t = out.tokens[index];
    t.begin = static_cast<uint32_t>(out.text.size());
    append_canonical(epoch_ms, out.text);
    t.size = static_cast<uint32_t>(out.text.size() - t.begin);
  }
}

}  // namespace loglens
