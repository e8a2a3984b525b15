#include "grok/pattern.h"

#include "common/strings.h"

namespace loglens {

std::string GrokPattern::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(tokens_.size());
  for (const auto& t : tokens_) {
    if (t.is_field) {
      std::string s = "%{";
      s += datatype_name(t.field.type);
      if (!t.field.name.empty()) {
        s += ':';
        s += t.field.name;
      }
      s += '}';
      parts.push_back(std::move(s));
    } else {
      parts.push_back(t.literal);
    }
  }
  return join(parts, " ");
}

StatusOr<GrokPattern> GrokPattern::parse(std::string_view text) {
  std::vector<GrokToken> tokens;
  for (std::string_view piece : split_any(text, " \t")) {
    if (piece.starts_with("%{")) {
      if (!piece.ends_with('}')) {
        return StatusOr<GrokPattern>::Error("unterminated %{...} in: " +
                                            std::string(piece));
      }
      std::string_view body = piece.substr(2, piece.size() - 3);
      std::string_view type_name = body;
      std::string_view field_name;
      if (size_t colon = body.find(':'); colon != std::string_view::npos) {
        type_name = body.substr(0, colon);
        field_name = body.substr(colon + 1);
      }
      Datatype type;
      if (!datatype_from_name(type_name, type)) {
        return StatusOr<GrokPattern>::Error("unknown datatype: " +
                                            std::string(type_name));
      }
      tokens.push_back(GrokToken::make_field(type, std::string(field_name)));
    } else {
      tokens.push_back(GrokToken::make_literal(std::string(piece)));
    }
  }
  if (tokens.empty()) {
    return StatusOr<GrokPattern>::Error("empty pattern");
  }
  return GrokPattern(std::move(tokens));
}

std::string GrokPattern::signature(const DatatypeClassifier& classifier) const {
  std::vector<std::string_view> parts;
  parts.reserve(tokens_.size());
  for (const auto& t : tokens_) {
    if (t.is_field) {
      parts.push_back(datatype_name(t.field.type));
    } else {
      parts.push_back(datatype_name(classifier.classify(t.literal)));
    }
  }
  return join(parts, " ");
}

bool GrokPattern::has_wildcard() const {
  for (const auto& t : tokens_) {
    if (t.is_field && t.field.type == Datatype::kAnyData) return true;
  }
  return false;
}

int GrokPattern::generality_score() const {
  int score = 0;
  for (const auto& t : tokens_) {
    if (t.is_field) score += generality(t.field.type);
  }
  return score;
}

void GrokPattern::assign_field_ids(int pattern_id) {
  id_ = pattern_id;
  int seq = 1;
  for (auto& t : tokens_) {
    if (t.is_field && t.field.name.empty()) {
      t.field.name = "P" + std::to_string(pattern_id) + "F" + std::to_string(seq);
    }
    if (t.is_field) ++seq;
  }
}

namespace {

bool is_wildcard(const GrokToken& pt) {
  return pt.is_field && pt.field.type == Datatype::kAnyData;
}

// Single-token predicate for literals and non-ANYDATA fields: does pattern
// token `pt` match log token `tok`? Depends only on the log token, never on
// its position — the property that makes the wildcard scan complete.
bool grok_token_matches(const GrokToken& pt, const Token& tok,
                        const DatatypeClassifier& classifier) {
  if (!pt.is_field) return tok.text == pt.literal;
  if (pt.field.type == Datatype::kDateTime) {
    return tok.type == Datatype::kDateTime;
  }
  return tok.type != Datatype::kDateTime &&
         classifier.matches(tok.text, pt.field.type);
}

}  // namespace

bool GrokPattern::match_tokens(const std::vector<Token>& tokens,
                               const DatatypeClassifier& classifier,
                               GrokMatchScratch& scratch) const {
  const size_t n = tokens.size();
  const size_t m = tokens_.size();
  scratch.steps = 0;
  // No zero fill: every slot is written before a successful match returns,
  // and a rejected attempt (the common case in a group scan) reads none.
  auto& starts = scratch.starts;
  starts.resize(m + 1);
  starts[m] = static_cast<uint32_t>(n);

  // Locate the fixed suffix after the last wildcard. Every non-wildcard
  // pattern token consumes exactly one log token and the match must end at
  // the last log token, so the suffix's placement is forced: right-aligned.
  // Anchoring it first both rejects unmatchable tails in O(suffix) and caps
  // the region the wildcard scan has to cover.
  size_t tail = m;
  while (tail > 0 && !is_wildcard(tokens_[tail - 1])) --tail;
  const size_t tail_len = m - tail;

  if (tail == 0) {
    // No wildcard: one-to-one.
    if (n != m) return false;
    for (size_t i = 0; i < m; ++i) {
      ++scratch.steps;
      if (!grok_token_matches(tokens_[i], tokens[i], classifier)) return false;
      starts[i] = static_cast<uint32_t>(i);
    }
    return true;
  }

  if (n < tail_len) return false;
  const size_t limit = n - tail_len;  // wildcard region is tokens[0, limit)
  for (size_t k = 0; k < tail_len; ++k) {
    ++scratch.steps;
    if (!grok_token_matches(tokens_[tail + k], tokens[limit + k], classifier)) {
      return false;
    }
    starts[tail + k] = static_cast<uint32_t>(limit + k);
  }

  // Match tokens_[0, tail) — which ends in a wildcard — against
  // tokens[0, limit). On a dead end, re-open the most recent wildcard one
  // token wider; earlier wildcards never need revisiting, so the scan is
  // O(tail * limit) and the first assignment found is the lexicographically
  // minimal one (same captures as the historical shortest-first search).
  constexpr size_t kNoStar = static_cast<size_t>(-1);
  size_t ti = 0;
  size_t pi = 0;
  size_t star_pi = kNoStar;  // most recent wildcard's pattern index
  size_t star_ti = 0;        // resume point: one past that wildcard's span
  while (ti < limit || pi < tail) {
    ++scratch.steps;
    if (pi < tail) {
      const GrokToken& pt = tokens_[pi];
      if (is_wildcard(pt)) {
        starts[pi] = static_cast<uint32_t>(ti);
        star_pi = pi;
        star_ti = ti;
        ++pi;
        continue;
      }
      if (ti < limit && grok_token_matches(pt, tokens[ti], classifier)) {
        starts[pi] = static_cast<uint32_t>(ti);
        ++pi;
        ++ti;
        continue;
      }
    }
    if (star_pi == kNoStar || star_ti >= limit) return false;
    ++star_ti;
    ti = star_ti;
    pi = star_pi + 1;
  }
  return true;
}

void GrokPattern::emit_fields(const std::vector<Token>& tokens,
                              const GrokMatchScratch& scratch,
                              JsonObject* out) const {
  const auto& starts = scratch.starts;
  size_t nf = 0;
  for (size_t pi = 0; pi < tokens_.size(); ++pi) {
    const GrokToken& pt = tokens_[pi];
    if (!pt.is_field) continue;
    if (nf == out->size()) out->emplace_back();
    auto& slot = (*out)[nf++];
    slot.first.assign(pt.field.name);
    std::string& value = slot.second.emplace_string();
    value.clear();
    if (pt.field.type == Datatype::kAnyData) {
      for (size_t k = starts[pi]; k < starts[pi + 1]; ++k) {
        if (k > starts[pi]) value += ' ';
        value += tokens[k].text;
      }
    } else {
      value.append(tokens[starts[pi]].text);
    }
  }
  out->resize(nf);
}

bool GrokPattern::match_into(const std::vector<Token>& tokens,
                             const DatatypeClassifier& classifier,
                             JsonObject* out, GrokMatchScratch& scratch) const {
  if (!match_tokens(tokens, classifier, scratch)) return false;
  if (out != nullptr) emit_fields(tokens, scratch, out);
  return true;
}

bool GrokPattern::match(const std::vector<Token>& tokens,
                        const DatatypeClassifier& classifier,
                        JsonObject* out) const {
  GrokMatchScratch scratch;
  if (out != nullptr) out->clear();
  return match_into(tokens, classifier, out, scratch);
}

bool GrokPattern::match(const std::vector<Token>& tokens,
                        const DatatypeClassifier& classifier) const {
  GrokMatchScratch scratch;
  return match_tokens(tokens, classifier, scratch);
}

}  // namespace loglens
