// LogMine-style unsupervised pattern discovery (Section III-A3; Hamooni et
// al., CIKM'16).
//
// Discovery runs in levels:
//   Level 0 clusters tokenized logs of equal length with a one-pass,
//   max-distance clustering against cluster representatives; each cluster
//   merges position-wise into one GROK pattern (identical tokens stay
//   literals, differing tokens become typed variable fields, with datatypes
//   joined upward in the Table I lattice).
//   Higher levels cluster the *patterns* with an alignment-based distance
//   and merge via sequence alignment, introducing ANYDATA wildcard fields
//   for gaps. Levels repeat with a relaxed threshold until the pattern count
//   drops under `max_patterns` (or the hierarchy stabilizes).
//
// The result is the log-pattern model: patterns with ids 1..m, generic field
// ids PxFy, and heuristic semantic names applied ("PDU = %{NUMBER:PDU}").
#pragma once

#include <vector>

#include "grok/datatype.h"
#include "grok/pattern.h"
#include "grok/token.h"

namespace loglens {

struct DiscoveryOptions {
  // Level-0 distance threshold in [0,1]; two logs cluster when their
  // normalized token distance is at most this.
  double max_dist = 0.3;
  // Target model size: higher levels run until at most this many patterns
  // remain (0 disables the cap and runs level 0 only). Each level relaxes
  // the threshold by 1.25x, for at most 8 levels. The Section III-A4
  // "Key = value" heuristic renaming always applies to the result.
  size_t max_patterns = 0;
};

// Join of two datatypes: the least general type covering both.
Datatype datatype_join(Datatype a, Datatype b);

// Normalized distance between two logs' same-length token sequences: per
// position, identical text scores 1, same datatype scores 0.5, otherwise 0;
// distance is 1 - total/length. Sequences of different length have
// distance 1.
double token_distance(const TokenizedLog& a, const TokenizedLog& b);

// Level 0's membership test, token_distance(a, b) <= max_dist, decided from
// the half-score h = 2 x identical positions + same-type positions.
// token_distance's expression is monotone in h, so per length n one
// threshold decides membership exactly: min_half_score(n, max_dist) is the
// smallest h in [0, 2n] it accepts, or 2n + 1 when it accepts none.
size_t min_half_score(size_t n, double max_dist);

// Same-length, non-empty `a` and `b`, with min_half from min_half_score:
// stops comparing as soon as h reaches min_half or the positions left can
// no longer lift it there.
bool within_distance(const TokenizedLog& a, const TokenizedLog& b,
                     size_t min_half);

// Alignment-based distance between two patterns (used at levels >= 1):
// 1 - 2*score/(len(a)+len(b)) where aligned identical tokens score 1,
// same-datatype fields 0.5 and gaps 0.
double pattern_distance(const GrokPattern& a, const GrokPattern& b,
                        const DatatypeClassifier& classifier);

// Merges two patterns by global alignment; unaligned stretches become a
// single ANYDATA field.
GrokPattern merge_patterns(const GrokPattern& a, const GrokPattern& b,
                           const DatatypeClassifier& classifier);

class PatternDiscoverer {
 public:
  PatternDiscoverer(DiscoveryOptions options,
                    const DatatypeClassifier& classifier)
      : options_(options), classifier_(classifier) {}

  // Discovers the pattern set for a training corpus. Deterministic for a
  // given input order.
  std::vector<GrokPattern> discover(const std::vector<TokenizedLog>& logs) const;

  // Incremental discovery against an existing model: logs a LogParser over
  // the `known` patterns parses are dropped up front — the same decision the
  // deployed parser makes — and clustering runs only on the novel remainder.
  // Returns `known` plus the newly discovered patterns, whose ids continue
  // after the highest known id. With `known` empty this is exactly
  // discover().
  std::vector<GrokPattern> discover_incremental(
      const std::vector<TokenizedLog>& logs,
      std::vector<GrokPattern> known) const;

 private:
  std::vector<GrokPattern> level0(const std::vector<TokenizedLog>& logs) const;
  std::vector<GrokPattern> reduce(std::vector<GrokPattern> patterns,
                                  double threshold) const;
  // The id-free pipeline (level 0 + reduction levels) shared by both entry
  // points; callers assign pattern ids and heuristic names.
  std::vector<GrokPattern> discover_raw(
      const std::vector<TokenizedLog>& logs) const;

  DiscoveryOptions options_;
  const DatatypeClassifier& classifier_;
};

}  // namespace loglens
