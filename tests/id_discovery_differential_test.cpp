// Differential test: the interned discover_id_fields against the reference
// formulation it replaced (tests/id_discovery_reference.h), over randomized
// ParsedLog corpora. The corpora mix shared event ids with constants, empty
// and non-string values, put one content under two fields of a pattern,
// perturb a pattern's field list between logs, and draw contents from small
// pools so candidates tie on distinct_contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/id_discovery.h"
#include "common/rng.h"
#include "id_discovery_reference.h"

namespace loglens {
namespace {

const std::vector<std::string> kFieldNames = {"id",   "req",  "host", "P1F1",
                                              "P2F1", "a",    "b",    "Key"};

Json random_value(Rng& rng, const std::string& event_id) {
  const uint64_t roll = rng.below(100);
  if (roll < 40) return Json(event_id);
  if (roll < 55) return Json(rng.chance(0.5) ? "prod" : "x");
  if (roll < 63) return Json("");
  if (roll < 71) return Json(static_cast<int>(rng.below(4)));
  if (roll < 75) return rng.chance(0.5) ? Json(nullptr) : Json(true);
  return Json("v" + std::to_string(rng.below(6)));
}

std::vector<ParsedLog> random_corpus(Rng& rng) {
  // Patterns: distinct ids (not necessarily dense or positive), each with a
  // field list of one to four names.
  const size_t pattern_count = static_cast<size_t>(rng.range(1, 7));
  std::vector<int> pattern_ids;
  while (pattern_ids.size() < pattern_count) {
    const int id = static_cast<int>(rng.range(-3, 40));
    if (std::find(pattern_ids.begin(), pattern_ids.end(), id) ==
        pattern_ids.end()) {
      pattern_ids.push_back(id);
    }
  }
  std::vector<std::vector<std::string>> field_lists(pattern_count);
  for (auto& fields : field_lists) {
    const size_t n = static_cast<size_t>(rng.range(1, 4));
    while (fields.size() < n) {
      const std::string& name = rng.pick(kFieldNames);
      if (std::find(fields.begin(), fields.end(), name) == fields.end()) {
        fields.push_back(name);
      }
    }
  }

  std::vector<ParsedLog> logs;
  const int events = static_cast<int>(rng.range(0, 40));
  const uint64_t id_pool = static_cast<uint64_t>(rng.range(1, 30));
  for (int e = 0; e < events; ++e) {
    // Event ids repeat across events now and then, and may be empty.
    const std::string event_id =
        rng.chance(0.05) ? "" : "ev-" + std::to_string(rng.below(id_pool));
    const int span = static_cast<int>(rng.range(1, 5));
    for (int l = 0; l < span; ++l) {
      const size_t p = rng.below(pattern_count);
      ParsedLog log;
      log.pattern_id = pattern_ids[p];
      log.timestamp_ms = static_cast<int64_t>(logs.size());
      std::vector<std::string> fields = field_lists[p];
      // Field lists that differ between logs of one pattern.
      if (rng.chance(0.1) && fields.size() > 1) {
        fields.erase(fields.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(fields.size())));
      } else if (rng.chance(0.1)) {
        fields.push_back(rng.pick(kFieldNames));
      } else if (rng.chance(0.1) && fields.size() > 1) {
        std::swap(fields.front(), fields.back());
      }
      for (size_t f = 0; f < fields.size(); ++f) {
        // The first field usually carries the event id (a real ID field);
        // any field may carry it by chance, so one content can sit under
        // two fields of one log.
        Json value = f == 0 && rng.chance(0.7) ? Json(event_id)
                                               : random_value(rng, event_id);
        log.fields.emplace_back(fields[f], std::move(value));
      }
      logs.push_back(std::move(log));
    }
  }
  // Interleave the events' logs, as a stream would.
  for (size_t i = logs.size(); i > 1; --i) {
    std::swap(logs[i - 1], logs[rng.below(i)]);
  }
  return logs;
}

IdDiscoveryOptions random_options(Rng& rng) {
  IdDiscoveryOptions opts;
  opts.min_patterns = static_cast<size_t>(rng.range(0, 3));
  opts.min_distinct_contents = static_cast<size_t>(rng.range(1, 3));
  const size_t max_logs[] = {1, 3, 8, 24, 100};
  opts.max_logs_per_content = max_logs[rng.below(5)];
  return opts;
}

TEST(IdDiscoveryDifferential, MatchesReferenceOnRandomCorpora) {
  size_t non_empty = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const std::vector<ParsedLog> logs = random_corpus(rng);
    const IdDiscoveryOptions opts = random_options(rng);
    const IdFieldMap expected = reference_discover_id_fields(logs, opts);
    ASSERT_EQ(discover_id_fields(logs, opts), expected) << "seed " << seed;
    if (!expected.empty()) ++non_empty;
  }
  // The corpora must exercise the selection, not just the filters.
  EXPECT_GT(non_empty, 500u);
}

ParsedLog log_of(int pattern,
                 std::initializer_list<std::pair<const char*, Json>> fields) {
  ParsedLog log;
  log.pattern_id = pattern;
  for (const auto& [k, v] : fields) log.fields.emplace_back(k, v);
  return log;
}

TEST(IdDiscoveryDifferential, TieOnDistinctContentsGoesToSmallerPairs) {
  // Two lists cover both patterns with two distinct contents each; the
  // lexicographically smaller (pattern, field) list wins.
  std::vector<ParsedLog> logs;
  for (const char* id : {"e1", "e2"}) {
    std::string other = std::string("o-") + id;
    logs.push_back(log_of(2, {{"z", Json(id)}, {"b", Json(other)}}));
    logs.push_back(log_of(1, {{"y", Json(other)}, {"a", Json(id)}}));
  }
  const IdFieldMap expected = reference_discover_id_fields(logs);
  EXPECT_EQ(expected, (IdFieldMap{{1, "a"}, {2, "z"}}));
  EXPECT_EQ(discover_id_fields(logs), expected);
}

TEST(IdDiscoveryDifferential, FieldListsDifferingBetweenLogs) {
  // Pattern 1's logs name their fields in different orders and sometimes
  // drop one; the id still resolves to the field name, not the position.
  std::vector<ParsedLog> logs;
  for (int e = 0; e < 4; ++e) {
    Json id("ev-" + std::to_string(e));
    if (e % 2 == 0) {
      logs.push_back(log_of(1, {{"id", id}, {"n", Json(e)}}));
    } else {
      logs.push_back(log_of(1, {{"n", Json(e)}, {"x", Json("")}, {"id", id}}));
    }
    logs.push_back(log_of(2, {{"ref", id}}));
  }
  const IdFieldMap expected = reference_discover_id_fields(logs);
  EXPECT_EQ(expected, (IdFieldMap{{1, "id"}, {2, "ref"}}));
  EXPECT_EQ(discover_id_fields(logs), expected);
}

}  // namespace
}  // namespace loglens
