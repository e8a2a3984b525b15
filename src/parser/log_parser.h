// The stateless log parser (Section III-B): LogLens's exemplary stateless
// anomaly detector and the building block for all downstream analytics.
//
// Given a model (the discovered GROK patterns) the parser maintains a hash
// index from log-signature to candidate-pattern-group:
//   1. compute the incoming log's signature,
//   2. on an index miss, build the group by running Algorithm 1 against all
//      m pattern signatures, sort it by datatype generality then length, and
//      cache it (an empty group is cached too),
//   3. scan the group's patterns in order until one parses the log, unless
//      the group is large against the log (below).
// A log no pattern parses is an anomaly (type kUnparsedLog).
//
// Step 3 has two routes, chosen once per index entry when its group is
// built. The index keys on the exact signature, so the signature's length is
// the token count of every log that hits the entry. The group is scanned
// linearly, as the paper does, unless it holds more than
// kWalkPatternsPerToken patterns per log token; only then does one token
// walk over the whole model (grok/set_matcher.h) pick the single candidate
// the capture pass runs on. The walk costs per log token, the scan per
// attempt, so the ratio decides which is cheaper (DESIGN.md, set matcher).
// The token-level matcher is compiled the first time an entry chooses the
// walk; a model whose groups never call for it never pays for it.
//
// The index keys on the hashed datatype sequence directly (no string key is
// ever built) and is bounded: entries beyond `index_capacity` evict the
// least-recently-used signature, so adversarial signature churn cannot grow
// the parser without bound. Evictions are counted in ParserStats and
// surfaced as loglens_parser_index_evictions_total.
//
// Hot-path contract: parse_into() reuses caller-owned ParsedLog storage plus
// per-instance scratch (signature buffer, matcher state), so an index-hit
// parse of a warm parser performs zero heap allocations
// (tests/parser_allocation_test.cpp holds this to exactly 0).
//
// `IndexMode::kDisabled` gives the naive O(m) scan-per-log behaviour for the
// index ablation benchmark.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "grok/datatype.h"
#include "grok/pattern.h"
#include "grok/set_matcher.h"
#include "grok/token.h"
#include "json/json.h"
#include "parser/signature.h"

#include <unordered_map>

namespace loglens {

// A successfully parsed log: the input of the stateful detector.
struct ParsedLog {
  int pattern_id = 0;
  int64_t timestamp_ms = -1;  // unified timestamp, -1 when the log has none
  JsonObject fields;          // field name -> value, in pattern order
  std::string raw;

  Json to_json() const;
};

struct ParseOutcome {
  std::optional<ParsedLog> log;  // empty => unparsed (stateless anomaly)
};

struct ParserStats {
  uint64_t logs = 0;
  uint64_t unparsed = 0;
  uint64_t index_hits = 0;
  uint64_t groups_built = 0;
  uint64_t index_evictions = 0;
  // Pattern comparisons: Algorithm 1 membership decisions during group
  // building (one per pattern per build, whether they were computed by the
  // per-pattern DP loop or by one set-matcher walk) plus (in naive mode) the
  // per-pattern model scan every log pays. This is the quantity the
  // O(mn) -> O(n) claim is about.
  uint64_t signature_comparisons = 0;
  uint64_t match_attempts = 0;
  // Set-level matcher (grok/set_matcher.h) activity. A walk decides the
  // matchability of every candidate in one pass; `set_candidates` counts the
  // patterns those walks reported matching (the capture pass then runs on
  // exactly one of them), `set_prefilter_hits` the walks where some log
  // token hit the pattern literal alphabet, and `set_fallbacks` the times a
  // walk overflowed its active-set cap (or a defensive mismatch occurred)
  // and the linear per-pattern scan ran instead.
  uint64_t set_walks = 0;
  uint64_t set_candidates = 0;
  uint64_t set_prefilter_hits = 0;
  uint64_t set_fallbacks = 0;
};

enum class IndexMode { kEnabled, kDisabled };

// kAuto: use the set-level matchers on the index-miss path (signature walk
// builds the candidate group) and, for groups large against their
// signature's length, on the match scan (token walk picks the one candidate
// the capture pass runs on). kDisabled: always scan linearly — the ablation
// baseline the differential tests compare against byte-for-byte.
enum class SetMatchMode { kAuto, kDisabled };

class LogParser {
 public:
  static constexpr size_t kDefaultIndexCapacity = 1u << 16;

  LogParser(std::vector<GrokPattern> model, const DatatypeClassifier& classifier,
            IndexMode index_mode = IndexMode::kEnabled,
            size_t index_capacity = kDefaultIndexCapacity,
            SetMatchMode set_match = SetMatchMode::kAuto);

  // Parses one preprocessed log.
  ParseOutcome parse(const TokenizedLog& log);

  // Hot-path variants: on success fill `out` in place (reusing its field and
  // raw string storage) and return true; on failure `out` is stale and must
  // not be read. The rvalue overload steals `log.raw` instead of copying it.
  bool parse_into(const TokenizedLog& log, ParsedLog& out);
  bool parse_into(TokenizedLog&& log, ParsedLog& out);

  std::vector<GrokPattern> model() const {
    std::vector<GrokPattern> out;
    out.reserve(patterns_.size());
    for (const auto& ip : patterns_) out.push_back(ip.pattern);
    return out;
  }
  size_t pattern_count() const { return patterns_.size(); }
  const ParserStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  size_t index_size() const { return index_map_.size(); }
  size_t index_capacity() const { return index_capacity_; }

  // Candidate count reported by the most recent token walk; meaningful only
  // when stats().set_walks moved during the last parse (the metrics layer
  // observes it into the loglens_grok_set_candidates histogram).
  size_t last_walk_candidates() const { return last_walk_candidates_; }

  // Test/bench hook: in kAuto, send every index hit through the token walk
  // whatever its entry's route, so differential tests exercise the walk on
  // small groups too.
  void force_set_walk(bool on) { force_set_walk_ = on; }

  // Approximate resident bytes of the model + index (memory experiment),
  // including the index's hash-bucket array and per-entry node overhead.
  size_t resident_bytes() const;

 private:
  struct IndexedPattern {
    GrokPattern pattern;
    std::vector<Datatype> signature;
    int generality = 0;
  };

  // One cached signature -> candidate-group mapping. The entry owns the
  // signature storage; the index map's span key points into it (std::list
  // nodes are stable under splice, so the span stays valid for the entry's
  // lifetime).
  struct IndexEntry {
    std::vector<Datatype> sig;
    std::vector<uint32_t> group;
    bool walk = false;  // match by token walk rather than by linear scan
  };
  using LruList = std::list<IndexEntry>;

  struct SigHash {
    size_t operator()(std::span<const Datatype> s) const {
      return static_cast<size_t>(signature_hash(s));
    }
  };
  struct SigEq {
    bool operator()(std::span<const Datatype> a,
                    std::span<const Datatype> b) const {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
  };

  // Scanning beats the token walk until a group holds more than this many
  // patterns per log token. The walk costs per log token, the scan per
  // rejected attempt and stops about halfway into its group; the measured
  // unit costs put the break-even near 5 on D4's model and near 13 on a
  // 2000-pattern shared-signature one (DESIGN.md, set matcher).
  static constexpr size_t kWalkPatternsPerToken = 8;

  // Looks up (and on miss builds + caches) the index entry for `sig`,
  // refreshing its LRU position. The returned reference is valid until the
  // next candidate_group call.
  const IndexEntry& candidate_group(std::span<const Datatype> sig);

  // The token-level set matcher, compiled on first use.
  const GrokSetMatcher& token_matcher();

  // Shared matching core: fills out.pattern_id / timestamp_ms / fields on
  // success, leaving out.raw for the caller to settle.
  bool match_core(const TokenizedLog& log, ParsedLog& out);

  const DatatypeClassifier& classifier_;
  IndexMode index_mode_;
  size_t index_capacity_;
  std::vector<IndexedPattern> patterns_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::span<const Datatype>, LruList::iterator, SigHash,
                     SigEq>
      index_map_;
  ParserStats stats_;
  // Set-level matchers (both empty in SetMatchMode::kDisabled): the
  // signature-level one, compiled with the parser, builds groups on index
  // misses; the token-level one, compiled by token_matcher() when an entry
  // first chooses the walk, matches logs against large groups.
  SetMatchMode set_match_mode_;
  bool force_set_walk_ = false;
  size_t last_walk_candidates_ = 0;
  GrokSetMatcher sig_matcher_;
  std::optional<GrokSetMatcher> token_matcher_;
  // Per-instance scratch reused across parse calls (hot-path contract). Each
  // matcher has its own walk scratch: a scratch sized for one trie would be
  // re-zeroed on every switch to the other.
  std::vector<Datatype> sig_scratch_;
  GrokMatchScratch match_scratch_;
  GrokSetScratch sig_walk_scratch_;
  GrokSetScratch token_walk_scratch_;
};

}  // namespace loglens
