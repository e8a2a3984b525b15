// The parser without its signature index, kept as the reference LogParser
// (parser/log_parser.h) is tested against: every log scans the whole model
// in a fixed order and the first pattern that matches parses it. Slow — one
// match attempt per pattern per log — and obviously Section III-B's
// "try the patterns" loop.
//
// group_order() is the order the parser's candidate groups use (generality,
// then length, then model index). Every pattern that parses a log also
// passes Algorithm 1 for it, so the scan in that order picks the very
// pattern the indexed parser picks; model_order() is the Logstash-style
// order in which a general pattern can shadow a specific one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "parser/log_parser.h"

namespace loglens {

inline std::vector<uint32_t> model_order(const std::vector<GrokPattern>& model) {
  std::vector<uint32_t> order(model.size());
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

inline std::vector<uint32_t> group_order(const std::vector<GrokPattern>& model) {
  std::vector<uint32_t> order = model_order(model);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const GrokPattern& pa = model[a];
    const GrokPattern& pb = model[b];
    if (pa.generality_score() != pb.generality_score()) {
      return pa.generality_score() < pb.generality_score();
    }
    return pa.size() < pb.size();
  });
  return order;
}

class ReferenceParser {
 public:
  ReferenceParser(std::vector<GrokPattern> model, std::vector<uint32_t> order,
                  const DatatypeClassifier& classifier)
      : model_(std::move(model)),
        order_(std::move(order)),
        classifier_(classifier) {}

  ParseOutcome parse(const TokenizedLog& log) {
    ParsedLog parsed;
    for (uint32_t pi : order_) {
      ++match_attempts_;
      if (model_[pi].match_into(log, classifier_, &parsed.fields,
                                scratch_)) {
        parsed.pattern_id = model_[pi].id();
        parsed.timestamp_ms = log.timestamp_ms;
        parsed.raw = log.raw();
        return ParseOutcome{std::move(parsed)};
      }
    }
    return {};
  }

  uint64_t match_attempts() const { return match_attempts_; }

 private:
  std::vector<GrokPattern> model_;
  std::vector<uint32_t> order_;
  const DatatypeClassifier& classifier_;
  GrokMatchScratch scratch_;
  uint64_t match_attempts_ = 0;
};

}  // namespace loglens
