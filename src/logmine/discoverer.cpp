#include "logmine/discoverer.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "grok/edit.h"
#include "grok/set_matcher.h"

namespace loglens {

Datatype datatype_join(Datatype a, Datatype b) {
  if (a == b) return a;
  if (is_covered(a, b)) return b;
  if (is_covered(b, a)) return a;
  // WORD/NUMBER/IP pairwise join to NOTSPACE; anything involving DATETIME
  // (which is not under NOTSPACE) joins to ANYDATA.
  if (a != Datatype::kDateTime && b != Datatype::kDateTime &&
      a != Datatype::kAnyData && b != Datatype::kAnyData) {
    return Datatype::kNotSpace;
  }
  return Datatype::kAnyData;
}

double token_distance(const std::vector<Token>& a,
                      const std::vector<Token>& b) {
  if (a.size() != b.size() || a.empty()) return 1.0;
  double score = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].text == b[i].text) {
      score += 1.0;
    } else if (a[i].type == b[i].type) {
      score += 0.5;
    }
  }
  return 1.0 - score / static_cast<double>(a.size());
}

namespace {

// Higher levels: threshold relaxation per level, and the level cap.
constexpr double kRelaxFactor = 1.25;
constexpr int kMaxLevels = 8;

// Per-token score for alignment: identical tokens 1.0; fields (or literal vs
// field) with joinable non-wildcard datatypes 0.5; otherwise 0.
double align_score(const GrokToken& x, const GrokToken& y,
                   const DatatypeClassifier& classifier) {
  if (!x.is_field && !y.is_field) {
    if (x.literal == y.literal) return 1.0;
    Datatype dx = classifier.classify(x.literal);
    Datatype dy = classifier.classify(y.literal);
    return dx == dy ? 0.5 : 0.25;
  }
  Datatype dx = x.is_field ? x.field.type : classifier.classify(x.literal);
  Datatype dy = y.is_field ? y.field.type : classifier.classify(y.literal);
  if (dx == dy) return 0.5;
  if (is_covered(dx, dy) || is_covered(dy, dx)) return 0.4;
  return 0.1;
}

// Global alignment (Needleman-Wunsch, gap score 0). Returns the DP score
// matrix; the traceback is recomputed by callers that need it.
std::vector<std::vector<double>> align_matrix(
    const GrokPattern& a, const GrokPattern& b,
    const DatatypeClassifier& classifier) {
  const auto& ta = a.tokens();
  const auto& tb = b.tokens();
  std::vector<std::vector<double>> dp(ta.size() + 1,
                                      std::vector<double>(tb.size() + 1, 0));
  for (size_t i = 1; i <= ta.size(); ++i) {
    for (size_t j = 1; j <= tb.size(); ++j) {
      double diag =
          dp[i - 1][j - 1] + align_score(ta[i - 1], tb[j - 1], classifier);
      dp[i][j] = std::max({diag, dp[i - 1][j], dp[i][j - 1]});
    }
  }
  return dp;
}

GrokToken merge_tokens(const GrokToken& x, const GrokToken& y,
                       const DatatypeClassifier& classifier) {
  if (!x.is_field && !y.is_field && x.literal == y.literal) {
    return x;  // still a constant
  }
  Datatype dx = x.is_field ? x.field.type : classifier.classify(x.literal);
  Datatype dy = y.is_field ? y.field.type : classifier.classify(y.literal);
  return GrokToken::make_field(datatype_join(dx, dy));
}

}  // namespace

double pattern_distance(const GrokPattern& a, const GrokPattern& b,
                        const DatatypeClassifier& classifier) {
  if (a.size() == 0 || b.size() == 0) return 1.0;
  auto dp = align_matrix(a, b, classifier);
  double best = dp[a.size()][b.size()];
  return 1.0 - 2.0 * best / static_cast<double>(a.size() + b.size());
}

GrokPattern merge_patterns(const GrokPattern& a, const GrokPattern& b,
                           const DatatypeClassifier& classifier) {
  auto dp = align_matrix(a, b, classifier);
  const auto& ta = a.tokens();
  const auto& tb = b.tokens();

  // Traceback, collecting merged tokens in reverse. Gap stretches collapse
  // into a single ANYDATA wildcard field.
  std::vector<GrokToken> reversed;
  size_t i = ta.size();
  size_t j = tb.size();
  bool in_gap = false;
  auto emit_gap = [&] {
    if (!in_gap) {
      reversed.push_back(GrokToken::make_field(Datatype::kAnyData));
      in_gap = true;
    }
  };
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        dp[i][j] ==
            dp[i - 1][j - 1] + align_score(ta[i - 1], tb[j - 1], classifier)) {
      reversed.push_back(merge_tokens(ta[i - 1], tb[j - 1], classifier));
      in_gap = false;
      --i;
      --j;
    } else if (i > 0 && dp[i][j] == dp[i - 1][j]) {
      emit_gap();
      --i;
    } else {
      emit_gap();
      --j;
    }
  }
  std::reverse(reversed.begin(), reversed.end());

  // Collapse adjacent wildcard fields that the traceback may have produced
  // around matched-but-widened positions.
  std::vector<GrokToken> merged;
  for (auto& t : reversed) {
    bool wild = t.is_field && t.field.type == Datatype::kAnyData;
    if (wild && !merged.empty() && merged.back().is_field &&
        merged.back().field.type == Datatype::kAnyData) {
      continue;
    }
    merged.push_back(std::move(t));
  }
  return GrokPattern(std::move(merged));
}

std::vector<GrokPattern> PatternDiscoverer::level0(
    const std::vector<TokenizedLog>& logs) const {
  struct Cluster {
    std::vector<Token> representative;   // first member
    std::vector<GrokToken> merged;       // running position-wise merge
  };
  // Bucket clusters by token count so only same-length logs are compared.
  std::unordered_map<size_t, std::vector<Cluster>> buckets;

  for (const auto& log : logs) {
    if (log.tokens.empty()) continue;
    auto& bucket = buckets[log.tokens.size()];
    Cluster* home = nullptr;
    for (auto& c : bucket) {
      if (token_distance(log.tokens, c.representative) <= options_.max_dist) {
        home = &c;
        break;
      }
    }
    if (home == nullptr) {
      Cluster c;
      c.representative = log.tokens;
      c.merged.reserve(log.tokens.size());
      for (const auto& t : log.tokens) {
        if (t.type == Datatype::kDateTime) {
          // Timestamps are always variable fields; two runs of the same
          // program never share one.
          c.merged.push_back(GrokToken::make_field(Datatype::kDateTime));
        } else {
          c.merged.push_back(GrokToken::make_literal(t.text));
        }
      }
      bucket.push_back(std::move(c));
      continue;
    }
    // Position-wise merge into the cluster pattern.
    for (size_t i = 0; i < log.tokens.size(); ++i) {
      GrokToken& m = home->merged[i];
      const Token& t = log.tokens[i];
      if (!m.is_field) {
        if (m.literal == t.text) continue;
        m = GrokToken::make_field(
            datatype_join(classifier_.classify(m.literal), t.type));
      } else if (m.field.type != Datatype::kDateTime ||
                 t.type != Datatype::kDateTime) {
        Datatype joined = datatype_join(
            m.field.type,
            t.type == Datatype::kDateTime ? Datatype::kDateTime : t.type);
        m.field.type = joined;
      }
    }
  }

  // Deterministic order: shorter patterns first, then textual order.
  std::vector<GrokPattern> out;
  std::vector<size_t> lengths;
  lengths.reserve(buckets.size());
  for (const auto& [len, _] : buckets) lengths.push_back(len);
  std::sort(lengths.begin(), lengths.end());
  for (size_t len : lengths) {
    for (auto& c : buckets[len]) {
      out.emplace_back(std::move(c.merged));
    }
  }
  return out;
}

std::vector<GrokPattern> PatternDiscoverer::reduce(
    std::vector<GrokPattern> patterns, double threshold) const {
  std::vector<GrokPattern> clusters;
  for (auto& p : patterns) {
    GrokPattern* home = nullptr;
    for (auto& c : clusters) {
      if (pattern_distance(p, c, classifier_) <= threshold) {
        home = &c;
        break;
      }
    }
    if (home == nullptr) {
      clusters.push_back(std::move(p));
    } else {
      *home = merge_patterns(*home, p, classifier_);
    }
  }
  return clusters;
}

std::vector<GrokPattern> PatternDiscoverer::discover_raw(
    const std::vector<TokenizedLog>& logs) const {
  std::vector<GrokPattern> patterns = level0(logs);

  if (options_.max_patterns > 0) {
    double threshold = options_.max_dist;
    for (int level = 1;
         level <= kMaxLevels && patterns.size() > options_.max_patterns;
         ++level) {
      threshold *= kRelaxFactor;
      if (threshold > 1.0) threshold = 1.0;
      size_t before = patterns.size();
      patterns = reduce(std::move(patterns), threshold);
      if (patterns.size() == before && threshold >= 1.0) break;
    }
  }
  return patterns;
}

std::vector<GrokPattern> PatternDiscoverer::discover(
    const std::vector<TokenizedLog>& logs) const {
  std::vector<GrokPattern> patterns = discover_raw(logs);
  int id = 1;
  for (auto& p : patterns) {
    p.assign_field_ids(id++);
    pattern_edit::apply_heuristic_names(p);
  }
  return patterns;
}

std::vector<GrokPattern> PatternDiscoverer::discover_incremental(
    const std::vector<TokenizedLog>& logs,
    std::vector<GrokPattern> known) const {
  if (known.empty()) return discover(logs);

  // One token-level walk per log decides whether *any* known pattern parses
  // it; only the novel remainder pays for clustering.
  const GrokSetMatcher matcher = GrokSetMatcher::compile_tokens(known);
  GrokSetScratch scratch;
  std::vector<TokenizedLog> novel;
  for (const auto& log : logs) {
    bool covered = false;
    if (matcher.match_tokens(log.tokens, classifier_, scratch)) {
      covered = !scratch.result.empty();
    } else {
      // Active-set overflow: decide by the linear per-pattern scan instead.
      for (const auto& p : known) {
        if (p.match(log.tokens, classifier_)) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) novel.push_back(log);
  }
  if (novel.empty()) return known;

  std::vector<GrokPattern> fresh = discover_raw(novel);
  int id = 0;
  for (const auto& p : known) id = std::max(id, p.id());
  for (auto& p : fresh) {
    p.assign_field_ids(++id);
    pattern_edit::apply_heuristic_names(p);
  }
  known.insert(known.end(), std::make_move_iterator(fresh.begin()),
               std::make_move_iterator(fresh.end()));
  return known;
}

}  // namespace loglens
