// GROK pattern model (Section III).
//
// A pattern is a whitespace-separated sequence of tokens; each token is
// either a fixed literal ("user1", "DB") or a typed variable field written
// %{TYPE:Name}. Patterns are discovered by clustering (logmine/), edited by
// users (grok/edit.h), indexed by signature (parser/), and matched against
// tokenized logs to produce JSON records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "grok/datatype.h"
#include "grok/token.h"
#include "json/json.h"

namespace loglens {

// Reusable state for GrokPattern::match_into. starts[pi] records the log
// token index where pattern token `pi` began matching (with a sentinel
// starts[pattern size] = log size), so a wildcard's span is
// [starts[pi], starts[pi+1]). `steps` counts matcher loop iterations of the
// last attempt; it is O(pattern tokens * log tokens) by construction, which
// tests use to pin down the old exponential-backtracking regression.
struct GrokMatchScratch {
  std::vector<uint32_t> starts;
  uint64_t steps = 0;
};

struct GrokField {
  Datatype type = Datatype::kNotSpace;
  std::string name;  // "P1F2" generic id or a user-supplied semantic name

  friend bool operator==(const GrokField&, const GrokField&) = default;
};

struct GrokToken {
  // Exactly one of the two alternatives is active.
  bool is_field = false;
  std::string literal;  // when !is_field
  GrokField field;      // when is_field

  static GrokToken make_literal(std::string text) {
    GrokToken t;
    t.literal = std::move(text);
    return t;
  }
  static GrokToken make_field(Datatype type, std::string name = {}) {
    GrokToken t;
    t.is_field = true;
    t.field = {type, std::move(name)};
    return t;
  }

  // An ANYDATA field: spans zero or more log tokens.
  bool is_wildcard() const {
    return is_field && field.type == Datatype::kAnyData;
  }

  friend bool operator==(const GrokToken&, const GrokToken&) = default;
};

class GrokPattern {
 public:
  GrokPattern() = default;
  explicit GrokPattern(std::vector<GrokToken> tokens)
      : tokens_(std::move(tokens)) {}

  // Renders as "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}".
  std::string to_string() const;

  // Parses the textual form back into a pattern. Accepts %{TYPE} without a
  // name. Fails on unknown datatypes or malformed %{...} syntax.
  static StatusOr<GrokPattern> parse(std::string_view text);

  // Pattern-signature (Section III-B): every field contributes its datatype
  // name; every literal contributes the datatype of its present value.
  std::string signature(const DatatypeClassifier& classifier) const;

  // Attempts to parse `log`; on success fills `out` with field-name ->
  // value pairs in pattern order and returns true. ANYDATA fields may span
  // zero or more tokens (joined with single spaces in the output); when
  // several assignments exist the lexicographically minimal one wins (each
  // wildcard takes as few tokens as possible, left to right), matching the
  // historical shortest-first search.
  bool match(const TokenizedLog& log, const DatatypeClassifier& classifier,
             JsonObject* out) const;
  bool match(const TokenizedLog& log,
             const DatatypeClassifier& classifier) const;

  // Hot-path variant: iterative matcher reusing `scratch` across calls. On
  // failure `out` is left untouched; on success `out` is overwritten in
  // place, reusing existing key/value string storage so a warm call performs
  // no heap allocation. `out` may be null to test matchability only.
  bool match_into(const TokenizedLog& log,
                  const DatatypeClassifier& classifier, JsonObject* out,
                  GrokMatchScratch& scratch) const;

  // Assigns generic field ids P<pattern_id>F<k> to fields that have no name
  // yet (discovery order, k starting at 1), and records the pattern id.
  void assign_field_ids(int pattern_id);

  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  const std::vector<GrokToken>& tokens() const { return tokens_; }
  std::vector<GrokToken>& tokens() { return tokens_; }
  size_t size() const { return tokens_.size(); }
  bool has_wildcard() const;

  // Sum of field generality ranks; the candidate-group sort key ("ascending
  // order of datatype's generality and length", Section III-B step 2).
  int generality_score() const;

  friend bool operator==(const GrokPattern&, const GrokPattern&) = default;

 private:
  // Fills scratch.starts with a match assignment, or returns false. The
  // matcher is the classic iterative glob scan: a single most-recent-wildcard
  // backtrack register makes it O(pattern * log) worst case (complete for
  // this pattern class because segments between wildcards are fixed-length
  // runs of position-independent single-token predicates), and the fixed
  // suffix after the last wildcard is anchored right-aligned up front so
  // unmatchable tails fail before any wildcard work happens.
  bool match_tokens(const TokenizedLog& log,
                    const DatatypeClassifier& classifier,
                    GrokMatchScratch& scratch) const;
  void emit_fields(const TokenizedLog& log, const GrokMatchScratch& scratch,
                   JsonObject* out) const;

  std::vector<GrokToken> tokens_;
  int id_ = 0;
};

}  // namespace loglens
