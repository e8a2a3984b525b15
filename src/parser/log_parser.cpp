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
                     size_t index_capacity)
    : classifier_(classifier),
      index_capacity_(std::max<size_t>(1, index_capacity)) {
  patterns_.reserve(model.size());
  for (auto& p : model) {
    IndexedPattern ip;
    ip.signature = pattern_signature(p, classifier_);
    ip.generality = p.generality_score();
    ip.pattern = std::move(p);
    patterns_.push_back(std::move(ip));
  }
}

const std::vector<uint32_t>& LogParser::candidate_group(
    std::span<const Datatype> sig) {
  auto it = index_map_.find(sig);
  if (it != index_map_.end()) {
    ++stats_.index_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->group;
  }
  ++stats_.groups_built;
  IndexEntry entry;
  entry.sig.assign(sig.begin(), sig.end());
  for (uint32_t pi = 0; pi < patterns_.size(); ++pi) {
    ++stats_.signature_comparisons;
    if (signature_match(sig, patterns_[pi].signature)) {
      entry.group.push_back(pi);
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
  if (index_map_.size() >= index_capacity_) {
    index_map_.erase(std::span<const Datatype>(lru_.back().sig));
    lru_.pop_back();
    ++stats_.index_evictions;
  }
  lru_.push_front(std::move(entry));
  index_map_.emplace(std::span<const Datatype>(lru_.front().sig),
                     lru_.begin());
  return lru_.front().group;
}

bool LogParser::match_core(const TokenizedLog& log, ParsedLog& out) {
  ++stats_.logs;
  sig_scratch_.clear();
  for (const auto& t : log.tokens) sig_scratch_.push_back(t.type);

  for (uint32_t pi : candidate_group(sig_scratch_)) {
    ++stats_.match_attempts;
    const GrokPattern& pattern = patterns_[pi].pattern;
    if (pattern.match_into(log.tokens, classifier_, &out.fields,
                           match_scratch_)) {
      out.pattern_id = pattern.id();
      out.timestamp_ms = log.timestamp_ms;
      return true;
    }
  }
  ++stats_.unparsed;
  return false;
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
