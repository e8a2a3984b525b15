#include "automata/model.h"

#include <algorithm>
#include <sstream>

namespace loglens {

std::vector<int> Automaton::pattern_set() const {
  std::vector<int> out;
  out.reserve(states.size());
  for (const auto& [pid, _] : states) out.push_back(pid);
  return out;
}

std::string Automaton::describe() const {
  std::ostringstream out;
  out << "automaton " << id << ": " << states.size() << " states, "
      << training_instances << " training instances\n";
  out << "  begin: {";
  for (int b : begin_patterns) out << " P" << b;
  out << " }  end: {";
  for (int e : end_patterns) out << " P" << e;
  out << " }\n  states:";
  for (const auto& [pid, rule] : states) {
    out << " P" << pid << " x[" << rule.min_occurrences << ","
        << rule.max_occurrences << "]";
  }
  out << "\n  duration: [" << min_duration_ms << ", " << max_duration_ms
      << "] ms\n";
  if (!transitions.empty()) {
    out << "  transitions:";
    for (const auto& [a, b] : transitions) out << " P" << a << "->P" << b;
    out << "\n";
  }
  return out.str();
}

Json Automaton::to_json() const {
  // Json::set, not an inlined emplace_back: GCC 12 -O3 warns array-bounds.
  Json obj;
  obj.set("id", Json(static_cast<int64_t>(id)));
  auto int_set = [](const std::set<int>& s) {
    JsonArray arr;
    for (int v : s) arr.emplace_back(static_cast<int64_t>(v));
    return Json(std::move(arr));
  };
  obj.set("begin_patterns", int_set(begin_patterns));
  obj.set("end_patterns", int_set(end_patterns));
  JsonArray states_arr;
  for (const auto& [pid, rule] : states) {
    JsonObject s;
    s.emplace_back("pattern_id", Json(static_cast<int64_t>(pid)));
    s.emplace_back("min_occ", Json(static_cast<int64_t>(rule.min_occurrences)));
    s.emplace_back("max_occ", Json(static_cast<int64_t>(rule.max_occurrences)));
    states_arr.emplace_back(Json(std::move(s)));
  }
  obj.set("states", Json(std::move(states_arr)));
  obj.set("min_duration_ms", Json(min_duration_ms));
  obj.set("max_duration_ms", Json(max_duration_ms));
  JsonArray trans;
  for (const auto& [a, b] : transitions) {
    JsonArray pair;
    pair.emplace_back(static_cast<int64_t>(a));
    pair.emplace_back(static_cast<int64_t>(b));
    trans.emplace_back(Json(std::move(pair)));
  }
  obj.set("transitions", Json(std::move(trans)));
  obj.set("training_instances",
          Json(static_cast<int64_t>(training_instances)));
  return obj;
}

StatusOr<Automaton> Automaton::from_json(const Json& j) {
  if (!j.is_object()) return StatusOr<Automaton>::Error("automaton not an object");
  Automaton a;
  a.id = static_cast<int>(j.get_int("id"));
  auto read_set = [&j](const char* key, std::set<int>& out) {
    if (const Json* arr = j.find(key); arr != nullptr && arr->is_array()) {
      for (const auto& v : arr->as_array()) {
        if (v.is_number()) out.insert(static_cast<int>(v.as_int()));
      }
    }
  };
  read_set("begin_patterns", a.begin_patterns);
  read_set("end_patterns", a.end_patterns);
  if (const Json* arr = j.find("states"); arr != nullptr && arr->is_array()) {
    for (const auto& s : arr->as_array()) {
      StateRule rule;
      rule.pattern_id = static_cast<int>(s.get_int("pattern_id"));
      rule.min_occurrences = static_cast<int>(s.get_int("min_occ", 1));
      rule.max_occurrences = static_cast<int>(s.get_int("max_occ", 1));
      a.states[rule.pattern_id] = rule;
    }
  }
  a.min_duration_ms = j.get_int("min_duration_ms");
  a.max_duration_ms = j.get_int("max_duration_ms");
  if (const Json* arr = j.find("transitions");
      arr != nullptr && arr->is_array()) {
    for (const auto& p : arr->as_array()) {
      if (p.is_array() && p.as_array().size() == 2) {
        a.transitions.insert({static_cast<int>(p.as_array()[0].as_int()),
                              static_cast<int>(p.as_array()[1].as_int())});
      }
    }
  }
  a.training_instances =
      static_cast<size_t>(j.get_int("training_instances", 0));
  return a;
}

Json SequenceModel::to_json() const {
  JsonObject obj;
  JsonObject ids;
  for (const auto& [pid, field] : id_fields) {
    ids.emplace_back(std::to_string(pid), Json(field));
  }
  obj.emplace_back("id_fields", Json(std::move(ids)));
  JsonArray arr;
  for (const auto& a : automata) arr.push_back(a.to_json());
  obj.emplace_back("automata", Json(std::move(arr)));
  return Json(std::move(obj));
}

StatusOr<SequenceModel> SequenceModel::from_json(const Json& j) {
  if (!j.is_object()) return StatusOr<SequenceModel>::Error("model not an object");
  SequenceModel m;
  if (const Json* ids = j.find("id_fields");
      ids != nullptr && ids->is_object()) {
    for (const auto& [k, v] : ids->as_object()) {
      if (v.is_string()) m.id_fields[std::stoi(k)] = v.as_string();
    }
  }
  if (const Json* arr = j.find("automata"); arr != nullptr && arr->is_array()) {
    for (const auto& aj : arr->as_array()) {
      auto a = Automaton::from_json(aj);
      if (!a.ok()) return StatusOr<SequenceModel>(a.status());
      m.automata.push_back(std::move(a.value()));
    }
  }
  return m;
}

SequenceModel learn_sequence_model(const std::vector<ParsedLog>& training,
                                   const LearnerOptions& options) {
  SequenceModel model;
  model.id_fields = discover_id_fields(training, options.id_discovery);

  // Group logs by event ID content, preserving stream order within a group.
  struct Instance {
    std::vector<std::pair<int, int64_t>> logs;  // (pattern id, timestamp)
  };
  std::map<std::string, Instance> instances;
  for (const auto& log : training) {
    // Unlike the detector, the learner groups logs with an empty ID too.
    const std::string* id = event_id_of(log, model.id_fields);
    if (id == nullptr) continue;
    instances[*id].logs.emplace_back(log.pattern_id, log.timestamp_ms);
  }

  // Merge instances by distinct-pattern-set into automata.
  std::map<std::vector<int>, Automaton> merged;
  for (const auto& [_, inst] : instances) {
    if (inst.logs.empty()) continue;
    std::set<int> pattern_set;
    for (const auto& [pid, _ts] : inst.logs) pattern_set.insert(pid);
    std::vector<int> key(pattern_set.begin(), pattern_set.end());

    auto [it, fresh] = merged.try_emplace(key);
    Automaton& a = it->second;

    std::map<int, int> occurrences;
    for (const auto& [pid, _ts] : inst.logs) ++occurrences[pid];
    int64_t first_ts = inst.logs.front().second;
    int64_t last_ts = inst.logs.back().second;
    int64_t duration =
        (first_ts >= 0 && last_ts >= first_ts) ? last_ts - first_ts : 0;

    if (fresh) {
      a.begin_patterns.insert(inst.logs.front().first);
      a.end_patterns.insert(inst.logs.back().first);
      for (const auto& [pid, count] : occurrences) {
        a.states[pid] = StateRule{pid, count, count};
      }
      a.min_duration_ms = a.max_duration_ms = duration;
    } else {
      a.begin_patterns.insert(inst.logs.front().first);
      a.end_patterns.insert(inst.logs.back().first);
      for (const auto& [pid, count] : occurrences) {
        StateRule& rule = a.states[pid];
        rule.pattern_id = pid;
        rule.min_occurrences = std::min(rule.min_occurrences, count);
        rule.max_occurrences = std::max(rule.max_occurrences, count);
      }
      a.min_duration_ms = std::min(a.min_duration_ms, duration);
      a.max_duration_ms = std::max(a.max_duration_ms, duration);
    }
    if (options.learn_transitions) {
      for (size_t i = 1; i < inst.logs.size(); ++i) {
        a.transitions.insert({inst.logs[i - 1].first, inst.logs[i].first});
      }
    }
    ++a.training_instances;
  }

  int next_id = 1;
  for (auto& [_, a] : merged) {
    a.id = next_id++;
    model.automata.push_back(std::move(a));
  }
  return model;
}

}  // namespace loglens
