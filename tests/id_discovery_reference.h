// The original discover_id_fields, kept as the reference the interned
// implementation (automata/id_discovery.cpp) is tested against: a reverse
// index from content to a std::set of (pattern id, field name) pairs, and
// candidates keyed by the pair lists themselves. Slow, and obviously the
// algorithm of the header comment in automata/id_discovery.h.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/id_discovery.h"

namespace loglens {

inline IdFieldMap reference_discover_id_fields(
    const std::vector<ParsedLog>& training,
    const IdDiscoveryOptions& options = {}) {
  using PatternField = std::pair<int, std::string>;  // (pattern id, field)
  struct Candidate {
    std::vector<PatternField> pairs;  // sorted, unique
    size_t distinct_contents = 0;
    size_t max_logs_one_content = 0;
    std::set<int> patterns;
  };

  // Step 1: reverse index, content -> occurrences.
  struct Posting {
    std::set<PatternField> pairs;
    size_t log_count = 0;
  };
  std::unordered_map<std::string, Posting> reverse;
  std::set<int> all_patterns;
  for (const auto& log : training) {
    all_patterns.insert(log.pattern_id);
    for (const auto& [field, value] : log.fields) {
      if (!value.is_string() || value.as_string().empty()) continue;
      auto& posting = reverse[value.as_string()];
      posting.pairs.insert({log.pattern_id, field});
      ++posting.log_count;
    }
  }

  // Step 2: deduplicate per-content lists into candidates.
  std::map<std::vector<PatternField>, Candidate> candidates;
  for (const auto& [content, posting] : reverse) {
    std::vector<PatternField> key(posting.pairs.begin(), posting.pairs.end());
    auto& cand = candidates[key];
    if (cand.pairs.empty()) {
      cand.pairs = key;
      for (const auto& [pid, _] : key) cand.patterns.insert(pid);
    }
    ++cand.distinct_contents;
    cand.max_logs_one_content =
        std::max(cand.max_logs_one_content, posting.log_count);
  }

  std::vector<const Candidate*> usable;
  for (const auto& [_, cand] : candidates) {
    if (cand.patterns.size() < options.min_patterns) continue;
    if (cand.distinct_contents < options.min_distinct_contents) continue;
    if (cand.max_logs_one_content > options.max_logs_per_content) continue;
    if (cand.pairs.size() != cand.patterns.size()) continue;
    usable.push_back(&cand);
  }

  // Step 3: a list covering every pattern wins, else greedy set cover.
  IdFieldMap result;
  std::set<int> covered;
  auto adopt = [&](const Candidate& cand) {
    for (const auto& [pid, field] : cand.pairs) {
      if (!result.contains(pid)) {
        result[pid] = field;
        covered.insert(pid);
      }
    }
  };
  const Candidate* full = nullptr;
  for (const Candidate* cand : usable) {
    if (cand->patterns.size() != all_patterns.size()) continue;
    if (full == nullptr || cand->distinct_contents > full->distinct_contents ||
        (cand->distinct_contents == full->distinct_contents &&
         cand->pairs < full->pairs)) {
      full = cand;
    }
  }
  if (full != nullptr) {
    adopt(*full);
    return result;
  }
  while (covered.size() < all_patterns.size()) {
    const Candidate* best = nullptr;
    size_t best_gain = 0;
    for (const Candidate* cand : usable) {
      size_t gain = 0;
      for (int pid : cand->patterns) {
        if (!covered.contains(pid)) ++gain;
      }
      if (gain == 0) continue;
      if (best == nullptr ||
          cand->distinct_contents > best->distinct_contents ||
          (cand->distinct_contents == best->distinct_contents &&
           (gain > best_gain ||
            (gain == best_gain && cand->pairs < best->pairs)))) {
        best = cand;
        best_gain = gain;
      }
    }
    if (best == nullptr) break;
    adopt(*best);
  }
  return result;
}

}  // namespace loglens
