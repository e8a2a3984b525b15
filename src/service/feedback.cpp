#include "service/feedback.h"

#include <algorithm>

namespace loglens {

GrokPattern pattern_from_line(const CompositeModel& model,
                              std::string_view raw, int pattern_id) {
  TokenizedLog log = model.make_preprocessor().process(raw);
  std::vector<GrokToken> tokens;
  tokens.reserve(log.tokens.size());
  for (const Token& t : log.tokens) {
    // WORD tokens are the stable vocabulary of a log line; everything else
    // (numbers, ips, ids, timestamps) is data and becomes a typed field.
    if (t.type == Datatype::kWord) {
      tokens.push_back(GrokToken::make_literal(std::string(log.text_of(t))));
    } else {
      tokens.push_back(GrokToken::make_field(t.type));
    }
  }
  GrokPattern pattern(std::move(tokens));
  pattern.assign_field_ids(pattern_id);
  return pattern;
}

namespace {

// Applies the model edit for one accepted anomaly; fills `description`.
Status apply_feedback(CompositeModel& model, const Anomaly& anomaly,
                      std::string& description) {
  Status edit_status = Status::Ok();
  [&] {
    auto automaton_of = [&model](int id) -> Automaton* {
      for (auto& a : model.sequence.automata) {
        if (a.id == id) return &a;
      }
      return nullptr;
    };
    auto fail = [&edit_status](std::string what) {
      edit_status = Status::Error(std::move(what));
    };

    switch (anomaly.type) {
      case AnomalyType::kUnparsedLog: {
        if (anomaly.logs.empty()) {
          fail("unparsed-log anomaly carries no log line");
          return;
        }
        int next_id = 1;
        for (const auto& p : model.patterns) {
          next_id = std::max(next_id, p.id() + 1);
        }
        GrokPattern pattern =
            pattern_from_line(model, anomaly.logs.front(), next_id);
        if (pattern.size() == 0) {
          fail("log line produced an empty pattern");
          return;
        }
        description = "added pattern P" + std::to_string(next_id) + ": " +
                      pattern.to_string();
        model.patterns.push_back(std::move(pattern));
        return;
      }
      case AnomalyType::kMissingBeginState: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int pattern = static_cast<int>(anomaly.details.get_int("first_pattern", -1));
        if (a == nullptr || pattern < 0) {
          fail("missing automaton or first_pattern detail");
          return;
        }
        a->begin_patterns.insert(pattern);
        description = "automaton " + std::to_string(a->id) +
                      ": accepted P" + std::to_string(pattern) +
                      " as a begin state";
        return;
      }
      case AnomalyType::kMissingEndState: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int pattern = static_cast<int>(anomaly.details.get_int("last_pattern", -1));
        if (a == nullptr || pattern < 0) {
          fail("missing automaton or last_pattern detail");
          return;
        }
        a->end_patterns.insert(pattern);
        description = "automaton " + std::to_string(a->id) +
                      ": accepted P" + std::to_string(pattern) +
                      " as an end state";
        return;
      }
      case AnomalyType::kMissingIntermediateState: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int pattern = static_cast<int>(anomaly.details.get_int("pattern_id", -1));
        if (a == nullptr || !a->states.contains(pattern)) {
          fail("missing automaton or pattern_id detail");
          return;
        }
        a->states[pattern].min_occurrences = 0;
        description = "automaton " + std::to_string(a->id) + ": state P" +
                      std::to_string(pattern) + " is now optional";
        return;
      }
      case AnomalyType::kOccurrenceViolation: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int pattern = static_cast<int>(anomaly.details.get_int("pattern_id", -1));
        int count = static_cast<int>(anomaly.details.get_int("count", -1));
        if (a == nullptr || !a->states.contains(pattern) || count < 0) {
          fail("missing automaton, pattern_id, or count detail");
          return;
        }
        StateRule& rule = a->states[pattern];
        rule.min_occurrences = std::min(rule.min_occurrences, count);
        rule.max_occurrences = std::max(rule.max_occurrences, count);
        description = "automaton " + std::to_string(a->id) + ": state P" +
                      std::to_string(pattern) + " occurrence widened to [" +
                      std::to_string(rule.min_occurrences) + ", " +
                      std::to_string(rule.max_occurrences) + "]";
        return;
      }
      case AnomalyType::kDurationViolation: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int64_t duration = anomaly.details.get_int("duration_ms", -1);
        if (a == nullptr || duration < 0) {
          fail("missing automaton or duration_ms detail");
          return;
        }
        a->min_duration_ms = std::min(a->min_duration_ms, duration);
        a->max_duration_ms = std::max(a->max_duration_ms, duration);
        description = "automaton " + std::to_string(a->id) +
                      ": duration widened to [" +
                      std::to_string(a->min_duration_ms) + ", " +
                      std::to_string(a->max_duration_ms) + "] ms";
        return;
      }
      case AnomalyType::kUnknownTransition: {
        Automaton* a = automaton_of(anomaly.automaton_id);
        int from = static_cast<int>(anomaly.details.get_int("from", -1));
        int to = static_cast<int>(anomaly.details.get_int("to", -1));
        if (a == nullptr || from < 0 || to < 0) {
          fail("missing automaton or transition details");
          return;
        }
        a->transitions.insert({from, to});
        description = "automaton " + std::to_string(a->id) +
                      ": accepted transition P" + std::to_string(from) +
                      " -> P" + std::to_string(to);
        return;
      }
      case AnomalyType::kKeywordAlert: {
        std::string_view token = anomaly.details.get_string("token");
        if (token.empty()) {
          fail("missing token detail");
          return;
        }
        // Creating a keyword model here would switch keyword detection on
        // with a one-token allowlist: every other keyword token would alert.
        if (!model.keyword_model.has_value()) {
          fail("the model has no keyword detector (the alert came from an "
               "earlier version); rebuild with keyword learning instead");
          return;
        }
        model.keyword_model->allow(std::string(token));
        description = "allowlisted keyword token '" + std::string(token) + "'";
        return;
      }
      case AnomalyType::kValueOutOfRange: {
        int pattern = static_cast<int>(anomaly.details.get_int("pattern_id", -1));
        std::string field(anomaly.details.get_string("field"));
        const Json* value = anomaly.details.find("value");
        if (pattern < 0 || field.empty() || value == nullptr ||
            !value->is_number()) {
          fail("missing range details");
          return;
        }
        if (!model.field_ranges.widen(pattern, field, value->as_double())) {
          fail("field not tracked: " + field);
          return;
        }
        description = "widened range of pattern " + std::to_string(pattern) +
                      " field " + field + " to include " +
                      std::to_string(value->as_double());
        return;
      }
      case AnomalyType::kOpenStateEvicted:
        // The detector ran out of open-state capacity; the model did not
        // misjudge anything, so there is no edit that would accept it.
        fail("open-state eviction is a capacity limit, not a model verdict; "
             "raise DetectorOptions::max_open_events instead");
        return;
    }
    fail("unsupported anomaly type");
  }();
  return edit_status;
}

}  // namespace

StatusOr<std::string> FeedbackHandler::accept_as_normal(
    const Anomaly& anomaly) {
  auto current = manager_.get(model_name_);
  if (!current.ok()) return StatusOr<std::string>(current.status());
  CompositeModel model = *current.value();
  std::string description;
  Status status = apply_feedback(model, anomaly, description);
  if (!status.ok()) return StatusOr<std::string>(status);
  // A new version, live rebroadcast.
  if (auto v = manager_.deploy(model_name_, model); !v.ok()) {
    return StatusOr<std::string>(v.status());
  }
  return description;
}

}  // namespace loglens
