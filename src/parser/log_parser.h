// The stateless log parser (Section III-B): LogLens's exemplary stateless
// anomaly detector and the building block for all downstream analytics.
//
// Given a model (the discovered GROK patterns) the parser maintains a hash
// index from log-signature to candidate-pattern-group:
//   1. compute the incoming log's signature,
//   2. on an index miss, build the group by running Algorithm 1 against all
//      m pattern signatures, sort it by datatype generality then length, and
//      cache it (an empty group is cached too),
//   3. scan the group's patterns in order until one parses the log.
// A log no pattern parses is an anomaly (type kUnparsedLog). This is the
// parser's only route: every pattern that parses a log also passes
// Algorithm 1 for it, so a full-model scan in group order picks the same
// pattern (tests/parser_reference.h is that scan, and parser_property_test
// holds the two byte-identical).
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
  // building, one per pattern per build. This is the quantity the
  // O(mn) -> O(n) claim is about.
  uint64_t signature_comparisons = 0;
  uint64_t match_attempts = 0;
  // Always 0: the parser has one route and nothing to fall back from. Kept
  // only because the end-to-end benchmark's parser.set_fallbacks metric
  // reads it; it goes when that metric does.
  uint64_t set_fallbacks = 0;
};

class LogParser {
 public:
  static constexpr size_t kDefaultIndexCapacity = 1u << 16;

  LogParser(std::vector<GrokPattern> model, const DatatypeClassifier& classifier,
            size_t index_capacity = kDefaultIndexCapacity);

  // Parses one preprocessed log.
  ParseOutcome parse(const TokenizedLog& log);

  // Hot-path variants: on success fill `out` in place (reusing its field and
  // raw string storage) and return true; on failure `out` is stale and must
  // not be read. The rvalue overload steals `log.raw` instead of copying it.
  bool parse_into(const TokenizedLog& log, ParsedLog& out);
  bool parse_into(TokenizedLog&& log, ParsedLog& out);

  size_t pattern_count() const { return patterns_.size(); }
  const ParserStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  size_t index_size() const { return index_map_.size(); }
  size_t index_capacity() const { return index_capacity_; }

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

  // Looks up (and on miss builds + caches) the candidate group for `sig`,
  // refreshing its LRU position. The returned reference is valid until the
  // next candidate_group call.
  const std::vector<uint32_t>& candidate_group(std::span<const Datatype> sig);

  // Shared matching core: fills out.pattern_id / timestamp_ms / fields on
  // success, leaving out.raw for the caller to settle.
  bool match_core(const TokenizedLog& log, ParsedLog& out);

  const DatatypeClassifier& classifier_;
  size_t index_capacity_;
  std::vector<IndexedPattern> patterns_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::span<const Datatype>, LruList::iterator, SigHash,
                     SigEq>
      index_map_;
  ParserStats stats_;
  // Per-instance scratch reused across parse calls (hot-path contract).
  std::vector<Datatype> sig_scratch_;
  GrokMatchScratch match_scratch_;
};

}  // namespace loglens
