// Log preprocessing (Section III-A1 + III-A2): delimiter splitting, user
// split rules, timestamp recognition/unification, datatype classification.
//
// The preprocessor turns a raw log line into a TokenizedLog:
//   1. split on the delimiter set (default: whitespace; user-overridable),
//   2. apply user RegEx split rules that break one token into sub-tokens
//      (paper example: "123KB" -> "123" "KB"),
//   3. recognize timestamps — possibly spanning several tokens ("Feb 23,
//      2016 09:00:31" is four) — and unify them into the canonical
//      "yyyy/MM/dd HH:mm:ss.SSS" DATETIME token,
//   4. classify every remaining token's datatype per Table I.
//
// The preprocessor is stateful only through the timestamp recognizer's
// matched-format cache, so one instance per log source preserves the paper's
// "logs from the same source use the same formats" locality.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "grok/token.h"
#include "regexlite/regex.h"
#include "timestamp/recognizer.h"

namespace loglens {

// A user rule splitting one token into several. `match` is applied to the
// whole token; on match, `rewrite` (with $1..$9 group references) produces a
// space-separated replacement. The paper's "[0-9]+KB" => "[0-9]+ KB" rule is
// expressed as {"([0-9]+)(KB)", "$1 $2"}.
struct SplitRuleSpec {
  std::string match;
  std::string rewrite;

  friend bool operator==(const SplitRuleSpec&, const SplitRuleSpec&) = default;
};

// The tokenizer a model is trained and parsed with; CompositeModel carries
// it (service/model.h), so the two can never differ.
struct PreprocessorOptions {
  std::string delimiters = " \t\r\n";        // user-overridable
  std::vector<SplitRuleSpec> split_rules;
  std::vector<std::string> timestamp_formats;  // replaces predefined if set

  friend bool operator==(const PreprocessorOptions&,
                         const PreprocessorOptions&) = default;
};

class Preprocessor {
 public:
  // Fails on a split rule or a timestamp format that does not compile.
  static StatusOr<Preprocessor> create(PreprocessorOptions options = {});

  TokenizedLog process(std::string_view raw);

  // Hot-path variant: fills `out` in place, reusing its text buffer and
  // token storage and the instance's view/timestamp scratch, so a warm call
  // on a line shaped like the last one performs no heap allocation (without
  // split rules). `raw` must not point into `out`.
  void process_into(std::string_view raw, TokenizedLog& out);

  TimestampRecognizer& recognizer() { return recognizer_; }
  const DatatypeClassifier& classifier() const { return classifier_; }

  // Times any split-rule regex gave up on VM budget exhaustion (monotonic;
  // surfaced as loglens_regex_budget_exhausted_total).
  uint64_t split_rule_budget_exhausted_total() const {
    uint64_t total = 0;
    for (const auto& r : rules_) total += r.match.budget_exhausted_count();
    return total;
  }

 private:
  struct CompiledRule {
    Regex match;
    std::string rewrite;
  };

  Preprocessor(PreprocessorOptions options, std::vector<CompiledRule> rules);

  // Splits `text` on the delimiter table, invoking fn(token) per piece.
  template <typename Fn>
  void for_each_delimited(std::string_view text, Fn&& fn) const {
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() ||
          is_delim_[static_cast<unsigned char>(text[i])]) {
        if (i > start) fn(text.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  PreprocessorOptions options_;
  std::vector<CompiledRule> rules_;
  TimestampRecognizer recognizer_;
  DatatypeClassifier classifier_;
  // Byte-indexed delimiter membership, so the per-character split test is
  // one load instead of a find() over the delimiter string.
  std::array<bool, 256> is_delim_ = {};
  // process_into scratch: the split tokens' texts for the timestamp
  // recognizer, and the (token index, epoch ms) of each recognized
  // timestamp, whose canonical text is appended once the views are done.
  std::vector<std::string_view> views_;
  std::vector<std::pair<size_t, int64_t>> stamps_;
};

}  // namespace loglens
