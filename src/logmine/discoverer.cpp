#include "logmine/discoverer.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "common/parallel.h"
#include "grok/edit.h"
#include "parser/log_parser.h"

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

double token_distance(const TokenizedLog& a, const TokenizedLog& b) {
  const size_t n = a.tokens.size();
  if (n != b.tokens.size() || n == 0) return 1.0;
  double score = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a.token_text(i) == b.token_text(i)) {
      score += 1.0;
    } else if (a.tokens[i].type == b.tokens[i].type) {
      score += 0.5;
    }
  }
  return 1.0 - score / static_cast<double>(n);
}

size_t min_half_score(size_t n, double max_dist) {
  // token_distance accumulates the score in steps of 0.5, exactly, so its
  // score is h / 2.0 and the comparison below is the one it makes.
  for (size_t h = 0; h <= 2 * n; ++h) {
    const double score = static_cast<double>(h) / 2.0;
    if (1.0 - score / static_cast<double>(n) <= max_dist) return h;
  }
  return 2 * n + 1;
}

bool within_distance(const TokenizedLog& a, const TokenizedLog& b,
                     size_t min_half) {
  const size_t n = a.tokens.size();
  size_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    if (h >= min_half) return true;
    if (h + 2 * (n - i) < min_half) return false;
    if (a.token_text(i) == b.token_text(i)) {
      h += 2;
    } else if (a.tokens[i].type == b.tokens[i].type) {
      h += 1;
    }
  }
  return h >= min_half;
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

namespace {

// Below this many logs level 0 clusters every bucket on the caller's thread:
// spawning helpers would cost more than they save.
constexpr size_t kParallelLevel0Logs = 2048;

// The logs of one length, in stream order, and the patterns they cluster
// into.
struct LengthBucket {
  size_t length = 0;
  std::vector<const TokenizedLog*> members;
  std::vector<std::vector<GrokToken>> patterns;
};

// One-pass max-distance clustering of a bucket against the cluster
// representatives, in creation order; each cluster's pattern is the running
// position-wise merge of its members.
void cluster_bucket(LengthBucket& bucket, double max_dist,
                    const DatatypeClassifier& classifier) {
  const size_t min_half = min_half_score(bucket.length, max_dist);
  std::vector<const TokenizedLog*> representatives;  // first members
  for (const TokenizedLog* log : bucket.members) {
    size_t home = 0;
    while (home < representatives.size() &&
           !within_distance(*log, *representatives[home], min_half)) {
      ++home;
    }
    if (home == representatives.size()) {
      representatives.push_back(log);
      std::vector<GrokToken> merged;
      merged.reserve(log->tokens.size());
      for (const Token& t : log->tokens) {
        if (t.type == Datatype::kDateTime) {
          // Timestamps are always variable fields; two runs of the same
          // program never share one.
          merged.push_back(GrokToken::make_field(Datatype::kDateTime));
        } else {
          merged.push_back(
              GrokToken::make_literal(std::string(log->text_of(t))));
        }
      }
      bucket.patterns.push_back(std::move(merged));
      continue;
    }
    // Position-wise merge into the cluster pattern.
    std::vector<GrokToken>& merged = bucket.patterns[home];
    for (size_t i = 0; i < log->tokens.size(); ++i) {
      GrokToken& m = merged[i];
      const Token& t = log->tokens[i];
      if (!m.is_field) {
        if (m.literal == log->text_of(t)) continue;
        m = GrokToken::make_field(
            datatype_join(classifier.classify(m.literal), t.type));
      } else {
        m.field.type = datatype_join(m.field.type, t.type);
      }
    }
  }
}

}  // namespace

std::vector<GrokPattern> PatternDiscoverer::level0(
    const std::vector<TokenizedLog>& logs) const {
  // Only logs of equal length are ever compared, so each length bucket
  // clusters on its own: largest first, on as many threads as there are
  // buckets to take. Each bucket sees its logs in stream order, so the
  // clusters do not depend on the thread count.
  std::vector<LengthBucket> buckets;
  std::unordered_map<size_t, size_t> bucket_of_length;
  for (const auto& log : logs) {
    if (log.tokens.empty()) continue;
    auto [it, fresh] =
        bucket_of_length.try_emplace(log.tokens.size(), buckets.size());
    if (fresh) buckets.emplace_back().length = log.tokens.size();
    buckets[it->second].members.push_back(&log);
  }
  std::vector<LengthBucket*> largest_first;
  for (auto& b : buckets) largest_first.push_back(&b);
  std::sort(largest_first.begin(), largest_first.end(),
            [](const LengthBucket* a, const LengthBucket* b) {
              return a->members.size() > b->members.size();
            });
  const size_t grain =
      logs.size() < kParallelLevel0Logs ? largest_first.size() : 1;
  parallel_for(largest_first.size(), grain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      cluster_bucket(*largest_first[i], options_.max_dist, classifier_);
    }
  });

  // Deterministic order: shorter patterns first, then creation order.
  std::sort(buckets.begin(), buckets.end(),
            [](const LengthBucket& a, const LengthBucket& b) {
              return a.length < b.length;
            });
  std::vector<GrokPattern> out;
  for (auto& b : buckets) {
    for (auto& merged : b.patterns) out.emplace_back(std::move(merged));
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

  // A line is novel iff the parser deployed over the known patterns cannot
  // parse it; only the novel remainder pays for clustering.
  LogParser parser(known, classifier_);
  ParsedLog scratch;
  std::vector<TokenizedLog> novel;
  for (const auto& log : logs) {
    if (!parser.parse_into(log, scratch)) novel.push_back(log);
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
