// Automatic event ID-field discovery (Section IV-A1).
//
// An event's logs are linked by an ID value that "appears the same in
// multiple logs in an event". Discovery is Apriori-flavoured:
//   1. Build a reverse index: field content -> list of (pattern id, field
//      name) pairs over all training logs containing that content.
//   2. Deduplicate the per-content lists. A list that covers all log
//      patterns is an event ID-field assignment (the paper's rule). With
//      heterogeneous event types no single list covers everything, so we
//      extend the rule with a greedy set cover: repeatedly accept the
//      candidate list covering the most still-uncovered patterns.
//
// Candidate lists are quality-filtered first: a usable ID value must occur
// at least twice with distinct contents (a constant that appears everywhere
// is not an ID), must span at least `min_patterns` patterns, and no single
// content may appear in more than `max_logs_per_content` logs.
//
// The result maps pattern id -> the field holding the event ID. Patterns
// outside the map do not participate in stateful detection.
//
// The implementation interns (pattern id, field name) pairs to integers
// numbered in sorted pair order and keys the reverse index by views into
// the training logs; tests/id_discovery_reference.h keeps the direct
// std::set formulation it must agree with.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "parser/log_parser.h"

namespace loglens {

struct IdDiscoveryOptions {
  size_t min_patterns = 2;           // a list must link at least this many
  size_t min_distinct_contents = 2;  // distinct ID values required
  // An ID value links the handful of logs of one event; values shared by
  // more logs than this (hosts, status strings, ...) are rejected.
  size_t max_logs_per_content = 24;
};

// pattern id -> field name carrying the event ID.
using IdFieldMap = std::map<int, std::string>;

IdFieldMap discover_id_fields(const std::vector<ParsedLog>& training,
                              const IdDiscoveryOptions& options = {});

// The event ID `log` carries under `id_fields`: its string value of the field
// mapped to its pattern. nullptr when the pattern has no ID field or the log
// has no string value for it. An empty ID is returned as is; each caller
// decides what it means.
const std::string* event_id_of(const ParsedLog& log,
                               const IdFieldMap& id_fields);

}  // namespace loglens
