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
  out.raw.assign(raw);
  out.timestamp_ms = -1;

  // 1. Delimiter split. 2. Split rules (one pass; a rule's output pieces are
  // not re-fed through the rules, matching the paper's single rewrite step).
  //
  // With no split rules (the common config) every token is a view into
  // out.raw — the one copy of the line made above — so the split allocates
  // and copies nothing. With rules, tokens are materialized into piece
  // slots (which keep their capacity across logs) because a rewrite has no
  // backing storage in the line; views are built only after every piece is
  // in place, since growing pieces_ would move SSO string bytes out from
  // under earlier views.
  views_.clear();
  if (rules_.empty()) {
    for_each_delimited(out.raw,
                       [&](std::string_view tok) { views_.push_back(tok); });
  } else {
    size_t np = 0;
    auto add_piece = [&](std::string_view sv) {
      if (np == pieces_.size()) pieces_.emplace_back();
      pieces_[np++].assign(sv);
    };
    for_each_delimited(out.raw, [&](std::string_view tok) {
      const CompiledRule* hit = nullptr;
      for (const auto& rule : rules_) {
        if (rule.match.full_match(tok)) {
          hit = &rule;
          break;
        }
      }
      if (hit == nullptr) {
        add_piece(tok);
        return;
      }
      std::string rewritten = hit->match.replace_all(tok, hit->rewrite);
      for_each_split_any(rewritten, " ", add_piece);
    });
    for (size_t i = 0; i < np; ++i) views_.push_back(pieces_[i]);
  }

  // 3+4. Timestamp recognition, then datatype classification. Token slots
  // are reused across logs, with a trailing resize dropping leftovers.
  const size_t np = views_.size();

  size_t nt = 0;
  auto next_token = [&]() -> Token& {
    if (nt == out.tokens.size()) out.tokens.emplace_back();
    return out.tokens[nt++];
  };
  size_t i = 0;
  while (i < np) {
    if (auto m = recognizer_.match_at(views_, i)) {
      Token& t = next_token();
      format_canonical_to(m->epoch_ms, t.text);
      t.type = Datatype::kDateTime;
      if (out.timestamp_ms < 0) out.timestamp_ms = m->epoch_ms;
      i += m->span;
      continue;
    }
    Token& t = next_token();
    t.text.assign(views_[i]);
    t.type = classifier_.classify(views_[i]);
    ++i;
  }
  out.tokens.resize(nt);
}

}  // namespace loglens
