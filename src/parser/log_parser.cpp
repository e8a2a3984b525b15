#include "parser/log_parser.h"

#include <algorithm>

#include "common/hash.h"
#include "common/time.h"

namespace loglens {

Json ParsedLog::to_json() const {
  JsonObject obj;
  obj.emplace_back("_pattern_id", Json(static_cast<int64_t>(pattern_id)));
  if (timestamp_ms >= 0) {
    obj.emplace_back("_timestamp", Json(format_canonical(timestamp_ms)));
  }
  for (const auto& [k, v] : fields) obj.emplace_back(k, v);
  return Json(std::move(obj));
}

LogParser::CompiledModel LogParser::compile(
    std::vector<GrokPattern> model, const DatatypeClassifier& classifier) {
  auto patterns = std::make_shared<std::vector<IndexedPattern>>();
  patterns->reserve(model.size());
  for (auto& p : model) {
    IndexedPattern ip;
    ip.signature = pattern_signature(p, classifier);
    ip.generality = p.generality_score();
    ip.pattern = std::move(p);
    patterns->push_back(std::move(ip));
  }
  return patterns;
}

LogParser::LogParser(std::vector<GrokPattern> model,
                     const DatatypeClassifier& classifier,
                     size_t index_capacity)
    : LogParser(compile(std::move(model), classifier), classifier,
                index_capacity) {}

LogParser::LogParser(CompiledModel model, const DatatypeClassifier& classifier,
                     size_t index_capacity)
    : classifier_(classifier),
      index_capacity_(std::max<size_t>(1, index_capacity)),
      patterns_(std::move(model)) {}

const LogParser::IndexEntry& LogParser::candidate_group(
    std::span<const Datatype> sig) {
  auto it = index_map_.find(sig);
  if (it != index_map_.end()) {
    ++stats_.index_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  ++stats_.groups_built;
  IndexEntry entry;
  entry.sig.assign(sig.begin(), sig.end());
  for (uint32_t pi = 0; pi < patterns_->size(); ++pi) {
    ++stats_.signature_comparisons;
    if (signature_match(sig, (*patterns_)[pi].signature)) {
      entry.group.push_back(pi);
    }
  }
  // "Patterns are sorted in the ascending order of datatype's generality and
  // length": most specific first; shorter patterns break ties.
  std::sort(entry.group.begin(), entry.group.end(),
            [this](uint32_t a, uint32_t b) {
              const auto& pa = (*patterns_)[a];
              const auto& pb = (*patterns_)[b];
              if (pa.generality != pb.generality) {
                return pa.generality < pb.generality;
              }
              if (pa.pattern.size() != pb.pattern.size()) {
                return pa.pattern.size() < pb.pattern.size();
              }
              return a < b;
            });
  build_literal_key(entry);
  if (index_map_.size() >= index_capacity_) {
    index_map_.erase(std::span<const Datatype>(lru_.back().sig));
    lru_.pop_back();
    ++stats_.index_evictions;
  }
  lru_.push_front(std::move(entry));
  index_map_.emplace(std::span<const Datatype>(lru_.front().sig),
                     lru_.begin());
  return lru_.front();
}

void LogParser::build_literal_key(IndexEntry& entry) const {
  const size_t g = entry.group.size();
  if (g < 2) return;
  // Every log of this entry has n tokens. A pattern token before the first
  // wildcard parses log token i; one after the last wildcard parses token
  // n - (m - k), since the suffix is right-aligned. Algorithm 1 admitted
  // the pattern, so n covers its non-wildcard tokens and the prefix and
  // suffix positions never overlap.
  const size_t n = entry.sig.size();
  struct Anchor {
    uint32_t pos;
    uint64_t hash;
    uint32_t rank;
  };
  std::vector<Anchor> anchors;
  for (uint32_t rank = 0; rank < g; ++rank) {
    const auto& tokens = (*patterns_)[entry.group[rank]].pattern.tokens();
    const size_t m = tokens.size();
    size_t first = 0;
    while (first < m && !tokens[first].is_wildcard()) ++first;
    size_t last = m;  // one past the last wildcard
    while (last > first && !tokens[last - 1].is_wildcard()) --last;
    for (size_t k = 0; k < m; ++k) {
      if (tokens[k].is_field || (k >= first && k < last)) continue;
      const size_t pos = k < first ? k : n - (m - k);
      anchors.push_back({static_cast<uint32_t>(pos),
                         fnv1a(tokens[k].literal), rank});
    }
  }
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.rank < b.rank;
            });

  // At a position holding `keyed` anchors whose largest equal-hash run is
  // `run`, the longest list a log can scan is (g - keyed) + run.
  size_t best_longest = g;
  size_t best_begin = 0;
  size_t best_end = 0;
  for (size_t i = 0; i < anchors.size();) {
    size_t end = i;
    size_t run = 0;
    size_t run_len = 0;
    for (; end < anchors.size() && anchors[end].pos == anchors[i].pos; ++end) {
      const bool same = end > i && anchors[end].hash == anchors[end - 1].hash;
      run_len = same ? run_len + 1 : 1;
      run = std::max(run, run_len);
    }
    const size_t longest = g - (end - i) + run;
    if (longest < best_longest) {
      best_longest = longest;
      best_begin = i;
      best_end = end;
    }
    i = end;
  }
  if (best_longest == g) return;  // no position shortens the scan

  entry.key_pos = anchors[best_begin].pos;
  std::vector<bool> is_keyed(g, false);
  entry.keyed.reserve(best_end - best_begin);
  for (size_t i = best_begin; i < best_end; ++i) {
    const Anchor& a = anchors[i];
    if (entry.lists.empty() || entry.lists.back().hash != a.hash) {
      const auto at = static_cast<uint32_t>(entry.keyed.size());
      entry.lists.push_back({a.hash, at, at});
    }
    entry.keyed.push_back(a.rank);
    entry.lists.back().end = static_cast<uint32_t>(entry.keyed.size());
    is_keyed[a.rank] = true;
  }
  entry.lists.shrink_to_fit();
  entry.unkeyed.reserve(g - entry.keyed.size());
  for (uint32_t rank = 0; rank < g; ++rank) {
    if (!is_keyed[rank]) entry.unkeyed.push_back(rank);
  }
}

bool LogParser::attempt(uint32_t pi, const TokenizedLog& log, ParsedLog& out) {
  ++stats_.match_attempts;
  const GrokPattern& pattern = (*patterns_)[pi].pattern;
  if (!pattern.match_into(log, classifier_, &out.fields, match_scratch_)) {
    return false;
  }
  out.pattern_id = pattern.id();
  out.timestamp_ms = log.timestamp_ms;
  return true;
}

bool LogParser::match_core(const TokenizedLog& log, ParsedLog& out) {
  ++stats_.logs;
  sig_scratch_.clear();
  for (const auto& t : log.tokens) sig_scratch_.push_back(t.type);

  const IndexEntry& entry = candidate_group(sig_scratch_);
  if (entry.key_pos == kNoKey) {
    for (uint32_t pi : entry.group) {
      if (attempt(pi, log, out)) return true;
    }
  } else {
    // The keyed list of the log's token (empty if no literal hashes like
    // it), merged with the unkeyed patterns in group order.
    const uint64_t hash = fnv1a(log.token_text(entry.key_pos));
    auto list = std::lower_bound(
        entry.lists.begin(), entry.lists.end(), hash,
        [](const LiteralList& l, uint64_t h) { return l.hash < h; });
    std::span<const uint32_t> keyed;
    if (list != entry.lists.end() && list->hash == hash) {
      keyed = std::span(entry.keyed).subspan(list->begin,
                                             list->end - list->begin);
    }
    const std::vector<uint32_t>& unkeyed = entry.unkeyed;
    size_t a = 0;
    size_t b = 0;
    while (a < keyed.size() || b < unkeyed.size()) {
      const bool take_keyed =
          b == unkeyed.size() || (a < keyed.size() && keyed[a] < unkeyed[b]);
      const uint32_t rank = take_keyed ? keyed[a++] : unkeyed[b++];
      if (attempt(entry.group[rank], log, out)) return true;
    }
  }
  ++stats_.unparsed;
  return false;
}

bool LogParser::parse_into(const TokenizedLog& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.assign(log.raw());
  return true;
}

bool LogParser::parse_into(TokenizedLog&& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.swap(log.text);
  out.raw.resize(log.raw_size);
  log.text.clear();
  log.tokens.clear();
  log.raw_size = 0;
  return true;
}

ParseOutcome LogParser::parse(const TokenizedLog& log) {
  ParsedLog parsed;
  if (!match_core(log, parsed)) return {};
  parsed.raw = log.raw();
  return ParseOutcome{std::move(parsed)};
}

size_t LogParser::resident_bytes() const {
  size_t total = sizeof(*this);
  for (const auto& ip : *patterns_) {
    total += sizeof(ip) + ip.signature.capacity() * sizeof(Datatype);
    for (const auto& t : ip.pattern.tokens()) {
      total += sizeof(t) + t.literal.capacity() + t.field.name.capacity();
    }
  }
  // Index: the hash table's bucket array, then per entry one map node (hash
  // cache + chain pointer + key/value pair) and one doubly-linked list node
  // around the entry's owned signature and group storage.
  total += index_map_.bucket_count() * sizeof(void*);
  constexpr size_t kMapNodeOverhead =
      sizeof(void*) + sizeof(size_t) +
      sizeof(std::pair<std::span<const Datatype>, LruList::iterator>);
  constexpr size_t kListNodeOverhead = 2 * sizeof(void*);
  for (const auto& e : lru_) {
    total += kMapNodeOverhead + kListNodeOverhead + sizeof(IndexEntry) +
             e.sig.capacity() * sizeof(Datatype) +
             e.group.capacity() * sizeof(uint32_t) +
             e.lists.capacity() * sizeof(LiteralList) +
             (e.keyed.capacity() + e.unkeyed.capacity()) * sizeof(uint32_t);
  }
  return total;
}

}  // namespace loglens
