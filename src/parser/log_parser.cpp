#include "parser/log_parser.h"

#include <algorithm>

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

LogParser::LogParser(std::vector<GrokPattern> model,
                     const DatatypeClassifier& classifier,
                     IndexMode index_mode, size_t index_capacity,
                     SetMatchMode set_match)
    : classifier_(classifier),
      index_mode_(index_mode),
      index_capacity_(std::max<size_t>(1, index_capacity)),
      set_match_mode_(set_match) {
  patterns_.reserve(model.size());
  for (auto& p : model) {
    IndexedPattern ip;
    ip.signature = pattern_signature(p, classifier_);
    ip.generality = p.generality_score();
    ip.pattern = std::move(p);
    patterns_.push_back(std::move(ip));
  }
  if (set_match_mode_ == SetMatchMode::kAuto) {
    std::vector<std::vector<Datatype>> sigs;
    sigs.reserve(patterns_.size());
    for (const auto& ip : patterns_) sigs.push_back(ip.signature);
    sig_matcher_ = GrokSetMatcher::compile_signatures(sigs);
  }
}

const GrokSetMatcher& LogParser::token_matcher() {
  if (!token_matcher_) {
    token_matcher_ = GrokSetMatcher::compile_tokens(model());
  }
  return *token_matcher_;
}

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
  // One signature-level walk decides Algorithm 1 membership for every
  // pattern at once — the index-miss cost drops from O(patterns) DPs to
  // ~O(signature length). The walk makes the same per-pattern membership
  // decisions the DP loop would, so it contributes the same
  // signature_comparisons count; only its cost differs.
  if (set_match_mode_ == SetMatchMode::kAuto &&
      sig_matcher_.match_signature(sig, sig_walk_scratch_)) {
    stats_.signature_comparisons += patterns_.size();
    entry.group.assign(sig_walk_scratch_.result.begin(),
                       sig_walk_scratch_.result.end());
  } else {
    if (set_match_mode_ == SetMatchMode::kAuto) ++stats_.set_fallbacks;
    for (uint32_t pi = 0; pi < patterns_.size(); ++pi) {
      ++stats_.signature_comparisons;
      if (signature_match(sig, patterns_[pi].signature)) {
        entry.group.push_back(pi);
      }
    }
  }
  // "Patterns are sorted in the ascending order of datatype's generality and
  // length": most specific first; shorter patterns break ties.
  std::sort(entry.group.begin(), entry.group.end(),
            [this](uint32_t a, uint32_t b) {
              const auto& pa = patterns_[a];
              const auto& pb = patterns_[b];
              if (pa.generality != pb.generality) {
                return pa.generality < pb.generality;
              }
              if (pa.pattern.size() != pb.pattern.size()) {
                return pa.pattern.size() < pb.pattern.size();
              }
              return a < b;
            });
  // Every log hitting this entry has sig.size() tokens, so the route can be
  // settled here: walk only a group large against the log (see
  // kWalkPatternsPerToken).
  entry.walk = set_match_mode_ == SetMatchMode::kAuto &&
               entry.group.size() > kWalkPatternsPerToken * sig.size();
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

bool LogParser::match_core(const TokenizedLog& log, ParsedLog& out) {
  ++stats_.logs;
  sig_scratch_.clear();
  for (const auto& t : log.tokens) sig_scratch_.push_back(t.type);

  const GrokPattern* matched = nullptr;
  if (index_mode_ == IndexMode::kEnabled) {
    const IndexEntry& entry = candidate_group(sig_scratch_);
    const std::vector<uint32_t>& group = entry.group;
    bool scanned = false;
    if (entry.walk ||
        (force_set_walk_ && set_match_mode_ == SetMatchMode::kAuto)) {
      // One token-level walk decides which candidates actually match; the
      // capture pass then runs on just the first group-ordered one of them
      // — the same pattern the linear scan would have stopped at, because
      // the walk is exact (grok_token_matches on both sides).
      GrokSetScratch& walk = token_walk_scratch_;
      if (token_matcher().match_tokens(log.tokens, classifier_, walk)) {
        ++stats_.set_walks;
        stats_.set_candidates += walk.result.size();
        if (walk.prefilter_hit) ++stats_.set_prefilter_hits;
        last_walk_candidates_ = walk.result.size();
        scanned = true;
        for (uint32_t pi : group) {
          if (!std::binary_search(walk.result.begin(), walk.result.end(),
                                  pi)) {
            continue;
          }
          ++stats_.match_attempts;
          if (patterns_[pi].pattern.match_into(log.tokens, classifier_,
                                               &out.fields, match_scratch_)) {
            matched = &patterns_[pi].pattern;
          } else {
            // Should be unreachable (the walk said this pattern matches).
            // Stay safe: fall through to the full linear scan.
            scanned = false;
            ++stats_.set_fallbacks;
          }
          break;
        }
      } else {
        ++stats_.set_fallbacks;
      }
    }
    if (!scanned && matched == nullptr) {
      for (uint32_t pi : group) {
        ++stats_.match_attempts;
        if (patterns_[pi].pattern.match_into(log.tokens, classifier_,
                                             &out.fields, match_scratch_)) {
          matched = &patterns_[pi].pattern;
          break;
        }
      }
    }
  } else {
    // Naive baseline behaviour: try every pattern in model order. Each scan
    // step is a pattern comparison — the cost the signature index amortizes
    // away — so it counts toward signature_comparisons too.
    for (auto& ip : patterns_) {
      ++stats_.signature_comparisons;
      ++stats_.match_attempts;
      if (ip.pattern.match_into(log.tokens, classifier_, &out.fields,
                                match_scratch_)) {
        matched = &ip.pattern;
        break;
      }
    }
  }

  if (matched == nullptr) {
    ++stats_.unparsed;
    return false;
  }
  out.pattern_id = matched->id();
  out.timestamp_ms = log.timestamp_ms;
  return true;
}

bool LogParser::parse_into(const TokenizedLog& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.assign(log.raw);
  return true;
}

bool LogParser::parse_into(TokenizedLog&& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.swap(log.raw);
  return true;
}

ParseOutcome LogParser::parse(const TokenizedLog& log) {
  ParsedLog parsed;
  if (!match_core(log, parsed)) return {};
  parsed.raw = log.raw;
  return ParseOutcome{std::move(parsed)};
}

size_t LogParser::resident_bytes() const {
  size_t total = sizeof(*this);
  total += sig_matcher_.resident_bytes();
  if (token_matcher_) total += token_matcher_->resident_bytes();
  for (const auto& ip : patterns_) {
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
             e.group.capacity() * sizeof(uint32_t);
  }
  return total;
}

}  // namespace loglens
