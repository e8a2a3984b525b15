#include "automata/id_discovery.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"

namespace loglens {

namespace {

// The work runs on interned (pattern id, field name) pairs: every pair gets
// a dense integer id, and ids are renumbered in sorted pair order before
// candidates form, so comparing id lists compares pair lists.
using PairId = uint32_t;
constexpr uint32_t kNone = UINT32_MAX;  // no pair, posting or candidate

struct InternedPair {
  int pattern = 0;
  std::string_view field;  // into the training logs
  size_t pattern_index = 0;  // dense, for coverage bookkeeping
};

// Per pattern id: the pair ids of its fields, by position. Fields come in
// pattern order, so a log's field k almost always resolves through
// `by_position[k]`; a log whose field list differs falls back to a scan of
// the pattern's names.
struct PatternFields {
  size_t index = 0;
  std::vector<PairId> by_position;
  std::vector<PairId> names;
};

// One distinct content. Most contents sit under a single pair; the others
// list their further pairs in a side table.
struct Posting {
  std::string_view content;  // into the training logs
  uint32_t log_count = 0;
  PairId first = kNone;
  bool shared = false;  // more pairs than `first`, listed in the side table
};

// Content -> posting index by open addressing; a slot keeps the content's
// 32-bit hash, the posting keeps the content.
class ContentIndex {
 public:
  uint32_t find_or_add(std::string_view content,
                       std::vector<Posting>& postings) {
    if (2 * (postings.size() + 1) > slots_.size()) grow();
    const uint64_t full = std::hash<std::string_view>{}(content);
    const auto hash = static_cast<uint32_t>(full ^ (full >> 32));
    for (size_t i = hash & (slots_.size() - 1);;
         i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.posting == kNone) {
        slot = {hash, static_cast<uint32_t>(postings.size())};
        postings.push_back({.content = content});
        return slot.posting;
      }
      if (slot.hash == hash && postings[slot.posting].content == content) {
        return slot.posting;
      }
    }
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t posting = kNone;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(1024, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.posting == kNone) continue;
      size_t i = s.hash & (slots_.size() - 1);
      while (slots_[i].posting != kNone) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
};

struct Candidate {
  std::vector<PairId> pairs;  // sorted, unique
  size_t distinct_contents = 0;
  size_t max_logs_one_content = 0;
  size_t patterns = 0;
  bool one_field_per_pattern = true;
};

struct PairListHash {
  size_t operator()(const std::vector<PairId>& ids) const {
    uint64_t h = kFnvOffset;
    for (PairId id : ids) h = hash_combine(h, id);
    return static_cast<size_t>(h);
  }
};

}  // namespace

IdFieldMap discover_id_fields(const std::vector<ParsedLog>& training,
                              const IdDiscoveryOptions& options) {
  // Step 1: reverse index, content -> the pairs holding it. Pair ids here
  // are provisional, in first-seen order.
  std::vector<InternedPair> pairs;
  std::unordered_map<int, PatternFields> patterns;
  auto resolve = [&](int pid, PatternFields& table, size_t k,
                     std::string_view field) {
    if (k < table.by_position.size()) {
      const PairId id = table.by_position[k];
      if (id != kNone && pairs[id].field == field) return id;
    }
    PairId id = kNone;
    for (PairId known : table.names) {
      if (pairs[known].field == field) {
        id = known;
        break;
      }
    }
    if (id == kNone) {
      id = static_cast<PairId>(pairs.size());
      pairs.push_back({pid, field, table.index});
      table.names.push_back(id);
    }
    if (k >= table.by_position.size()) table.by_position.resize(k + 1, kNone);
    if (table.by_position[k] == kNone) table.by_position[k] = id;
    return id;
  };

  std::vector<Posting> postings;
  ContentIndex index;
  std::vector<std::pair<uint32_t, PairId>> more_pairs;  // (posting, pair)
  for (const auto& log : training) {
    auto [it, fresh] = patterns.try_emplace(log.pattern_id);
    if (fresh) it->second.index = patterns.size() - 1;
    for (size_t k = 0; k < log.fields.size(); ++k) {
      const auto& [field, value] = log.fields[k];
      if (!value.is_string() || value.as_string().empty()) continue;
      const PairId id = resolve(log.pattern_id, it->second, k, field);
      const uint32_t p = index.find_or_add(value.as_string(), postings);
      Posting& posting = postings[p];
      ++posting.log_count;
      if (posting.first == kNone) {
        posting.first = id;
      } else if (posting.first != id) {
        posting.shared = true;
        more_pairs.emplace_back(p, id);
      }
    }
  }

  // Renumber the pairs in sorted (pattern id, field name) order.
  std::vector<PairId> sorted(pairs.size());
  std::iota(sorted.begin(), sorted.end(), PairId{0});
  std::sort(sorted.begin(), sorted.end(), [&](PairId a, PairId b) {
    if (pairs[a].pattern != pairs[b].pattern) {
      return pairs[a].pattern < pairs[b].pattern;
    }
    return pairs[a].field < pairs[b].field;
  });
  std::vector<PairId> rank(pairs.size());
  std::vector<InternedPair> by_rank(pairs.size());
  for (size_t r = 0; r < sorted.size(); ++r) {
    rank[sorted[r]] = static_cast<PairId>(r);
    by_rank[r] = pairs[sorted[r]];
  }

  // Step 2: deduplicate per-content pair lists into candidates, tracking
  // quality. A single-pair list is found by its pair id; the lists of
  // shared contents by hashing.
  std::vector<Candidate> candidates;
  std::vector<uint32_t> single_candidate(pairs.size(), kNone);
  std::unordered_map<std::vector<PairId>, uint32_t, PairListHash>
      shared_candidate;
  auto count = [&](uint32_t c, const Posting& posting) {
    Candidate& cand = candidates[c];
    ++cand.distinct_contents;
    cand.max_logs_one_content =
        std::max<size_t>(cand.max_logs_one_content, posting.log_count);
  };
  auto add_candidate = [&](std::vector<PairId> list) {
    Candidate cand;
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0 && by_rank[list[i]].pattern == by_rank[list[i - 1]].pattern) {
        cand.one_field_per_pattern = false;
      } else {
        ++cand.patterns;
      }
    }
    cand.pairs = std::move(list);
    candidates.push_back(std::move(cand));
    return static_cast<uint32_t>(candidates.size() - 1);
  };
  for (const Posting& posting : postings) {
    if (posting.shared) continue;
    uint32_t& c = single_candidate[rank[posting.first]];
    if (c == kNone) c = add_candidate({rank[posting.first]});
    count(c, posting);
  }
  std::sort(more_pairs.begin(), more_pairs.end());
  for (size_t i = 0; i < more_pairs.size();) {
    const uint32_t p = more_pairs[i].first;
    std::vector<PairId> list = {rank[postings[p].first]};
    for (; i < more_pairs.size() && more_pairs[i].first == p; ++i) {
      list.push_back(rank[more_pairs[i].second]);
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    auto [it, fresh] = shared_candidate.try_emplace(list, 0);
    if (fresh) it->second = add_candidate(std::move(list));
    count(it->second, postings[p]);
  }

  // Quality filter. A candidate must link several patterns via several
  // distinct, low-frequency contents, and must name exactly one field per
  // pattern (an ambiguous pattern->field mapping is not an ID).
  std::vector<const Candidate*> usable;
  for (const Candidate& cand : candidates) {
    if (cand.patterns < options.min_patterns) continue;
    if (cand.distinct_contents < options.min_distinct_contents) continue;
    if (cand.max_logs_one_content > options.max_logs_per_content) continue;
    if (!cand.one_field_per_pattern) continue;
    usable.push_back(&cand);
  }

  // Step 3: the paper's rule — any list covering all patterns wins — then
  // greedy set cover for heterogeneous event mixes. Every choice below is a
  // total order (ending in the pair lists), so neither step depends on the
  // order `usable` is in.
  IdFieldMap result;
  std::vector<char> covered(patterns.size(), 0);
  size_t covered_count = 0;
  auto adopt = [&](const Candidate& cand) {
    for (PairId id : cand.pairs) {
      const InternedPair& pair = by_rank[id];
      if (!covered[pair.pattern_index]) {
        result[pair.pattern] = std::string(pair.field);
        covered[pair.pattern_index] = 1;
        ++covered_count;
      }
    }
  };

  // Among the candidates covering every pattern, the one backed by the most
  // distinct contents is the real ID (coincidental value collisions across
  // unrelated numeric fields can also cover everything, but only via a
  // handful of contents).
  const Candidate* full = nullptr;
  for (const Candidate* cand : usable) {
    if (cand->patterns != patterns.size()) continue;
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

  // Greedy cover, strongest evidence first: a genuine per-event-type ID is
  // supported by one distinct content per event (many), while accidental
  // value collisions that happen to span several patterns are supported by
  // a handful — so distinct_contents outranks coverage gain.
  while (covered_count < patterns.size()) {
    const Candidate* best = nullptr;
    size_t best_gain = 0;
    for (const Candidate* cand : usable) {
      size_t gain = 0;
      for (PairId id : cand->pairs) {
        if (!covered[by_rank[id].pattern_index]) ++gain;
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

const std::string* event_id_of(const ParsedLog& log,
                               const IdFieldMap& id_fields) {
  auto it = id_fields.find(log.pattern_id);
  if (it == id_fields.end()) return nullptr;
  for (const auto& [k, v] : log.fields) {
    if (k == it->second) return v.is_string() ? &v.as_string() : nullptr;
  }
  return nullptr;
}

}  // namespace loglens
