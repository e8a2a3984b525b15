// regexlite: a small backtracking regular-expression engine.
//
// LogLens needs regular expressions in two places: user-supplied tokenizer
// split rules (Section III-A1), and the Logstash-style baseline parser which
// compiles whole GROK patterns to regexes and scans them linearly. The
// datatype definitions of Table I (WORD, NUMBER, IP) run as hand-written
// scanners; their regexes serve as the tests' executable spec. Depending on a
// full-featured engine would hide exactly the cost structure the paper
// measures, so we implement the required subset from scratch:
//
//   literals, '.', character classes [a-z0-9_] / [^...], escapes
//   (\d \D \w \W \s \S plus punctuation), grouping '(...)' with capture,
//   alternation '|', anchors '^' '$', quantifiers * + ? {m} {m,} {m,n}
//   with lazy variants (*?, +?, ??, {m,n}?).
//
// Patterns compile to a bytecode program executed by an iterative
// backtracking VM (Pike-style instruction set, backtracking execution). A
// step budget bounds pathological backtracking; exceeding it reports
// no-match — the safe direction for anomaly detection — but the exhaustion
// is surfaced (RegexMatch::budget_exhausted + a per-instance counter) so
// callers can tell a truncated search from a genuine no-match.
//
// Hot-path contract: run() keeps its VM state (slot/undo/choice stacks) in
// thread-local scratch reused across calls, so a match attempt performs no
// heap allocation once a thread is warm.
#pragma once

#include <atomic>
#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace loglens {

struct RegexMatch {
  size_t begin = 0;  // byte offset of the whole match
  size_t end = 0;
  // groups[i] is the i-th capture group (1-based in replacement syntax);
  // npos/npos when the group did not participate.
  static constexpr size_t kUnset = static_cast<size_t>(-1);
  std::vector<std::pair<size_t, size_t>> groups;
  // True when any attempt of the last full_match/search call gave up because
  // the VM step budget ran out (the result is then "unknown", reported as
  // no-match). Sticky across the start-position attempts of one call: a
  // search that exhausts the budget at an early start and fails cleanly at
  // every later start still reports exhaustion. Reset at the top of each
  // full_match/search call, never inside an attempt.
  bool budget_exhausted = false;

  std::string_view group_text(std::string_view subject, size_t index) const {
    if (index >= groups.size() || groups[index].first == kUnset) return {};
    return subject.substr(groups[index].first,
                          groups[index].second - groups[index].first);
  }
};

class Regex {
 public:
  Regex() = default;

  // Compiles `pattern`; reports syntax errors with offsets.
  static StatusOr<Regex> compile(std::string_view pattern);

  // Convenience: compiles or aborts (after printing the pattern and the
  // compile error to stderr). For string literals known to be valid.
  static Regex compile_or_die(std::string_view pattern);

  // Whole-string match (as if anchored on both ends).
  bool full_match(std::string_view text) const;
  bool full_match(std::string_view text, RegexMatch& m) const;

  // Leftmost match anywhere in `text`.
  bool search(std::string_view text, RegexMatch& m) const;
  bool search(std::string_view text) const;

  // Replaces every non-overlapping match with `replacement`, where $1..$9
  // refer to capture groups and $0 to the whole match ($$ emits '$').
  // Matching is performed against the full text with a start offset, so
  // '^' matches only at offset 0 and '$' only at the true end of input —
  // never at the seams left by earlier replacements. If any scan exhausts
  // the step budget, the remaining text is left unreplaced and
  // *budget_exhausted (when non-null) is set so the caller can tell the
  // truncated result from a clean completion.
  std::string replace_all(std::string_view text, std::string_view replacement,
                          bool* budget_exhausted = nullptr) const;

  const std::string& pattern() const { return pattern_; }
  size_t group_count() const { return group_count_; }

  // Rough memory footprint of the compiled program, used by the baseline
  // parser memory experiment.
  size_t compiled_bytes() const;

  // Maximum VM steps per match attempt (default 4M). Exposed for tests.
  void set_step_budget(uint64_t budget) { step_budget_ = budget; }

  // Times any match attempt on this instance gave up on budget exhaustion
  // (monotonic; fed into loglens_regex_budget_exhausted_total).
  uint64_t budget_exhausted_count() const {
    return budget_exhausted_.v.load(std::memory_order_relaxed);
  }

 private:
  enum class Op : uint8_t {
    kChar, kAny, kClass, kSplit, kJmp, kSave, kMatch, kBegin, kEnd,
    // Empty-loop guards: kMark snapshots the cursor entering a Kleene
    // iteration; kCheckProgress fails the path when the body consumed
    // nothing (the exit branch of the loop's Split covers that case).
    kMark, kCheckProgress,
  };

  struct Inst {
    Op op;
    char ch = 0;        // kChar
    uint32_t x = 0;     // kSplit/kJmp target, kClass index, kSave slot
    uint32_t y = 0;     // kSplit second target
  };

  // `m` may be null when the caller only needs the boolean (skips group
  // extraction entirely).
  bool run(std::string_view text, size_t start, bool anchored_end,
           RegexMatch* m) const;

  // Relaxed counter with value-copy semantics so Regex stays copyable.
  struct RelaxedCounter {
    std::atomic<uint64_t> v{0};
    RelaxedCounter() = default;
    RelaxedCounter(const RelaxedCounter& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(const RelaxedCounter& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  std::string pattern_;
  std::vector<Inst> prog_;
  std::vector<std::bitset<256>> classes_;
  size_t group_count_ = 0;
  size_t loop_count_ = 0;
  uint64_t step_budget_ = 4u << 20;
  mutable RelaxedCounter budget_exhausted_;

  friend class RegexCompiler;
};

}  // namespace loglens
