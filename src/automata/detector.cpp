#include "automata/detector.h"

#include <algorithm>
#include <set>
#include <utility>

namespace loglens {

SequenceDetector::SequenceDetector(SequenceModel model,
                                   DetectorOptions options)
    : model_(std::move(model)), options_(options) {}

bool SequenceDetector::pattern_known(int pattern_id) const {
  for (const auto& a : model_.automata) {
    if (a.states.contains(pattern_id)) return true;
  }
  return false;
}

const std::vector<int>& SequenceDetector::observed_patterns(
    const OpenEvent& event) const {
  observed_scratch_.clear();
  for (const auto& [pid, _] : event.logs) observed_scratch_.push_back(pid);
  std::sort(observed_scratch_.begin(), observed_scratch_.end());
  observed_scratch_.erase(
      std::unique(observed_scratch_.begin(), observed_scratch_.end()),
      observed_scratch_.end());
  return observed_scratch_;
}

const Automaton* SequenceDetector::candidate_for(
    const OpenEvent& event) const {
  const std::vector<int>& observed = observed_patterns(event);
  const Automaton* best = nullptr;
  for (const auto& a : model_.automata) {
    bool contains_all = std::all_of(
        observed.begin(), observed.end(),
        [&a](int pid) { return a.states.contains(pid); });
    if (!contains_all) continue;
    if (best == nullptr || a.states.size() < best->states.size() ||
        (a.states.size() == best->states.size() && a.id < best->id)) {
      best = &a;
    }
  }
  return best;
}

Anomaly make_eviction_anomaly(const std::string& event_id,
                              const std::string& source,
                              const std::vector<std::string>& raws,
                              int automaton_id, int64_t event_last_ts,
                              int64_t close_time_ms, size_t open_events,
                              size_t max_open_events, int64_t deadline_ms) {
  Anomaly a;
  a.type = AnomalyType::kOpenStateEvicted;
  a.severity = "medium";
  a.reason = "open events exceeded the max_open_events bound (" +
             std::to_string(max_open_events) +
             "); evicted the event with the earliest expiry deadline before "
             "it reached an end state";
  a.timestamp_ms = event_last_ts >= 0 ? event_last_ts : close_time_ms;
  a.source = source;
  a.event_id = event_id;
  a.automaton_id = automaton_id;
  a.logs = raws;
  a.details = Json(JsonObject{
      {"open_events", Json(static_cast<int64_t>(open_events))},
      {"max_open_events", Json(static_cast<int64_t>(max_open_events))},
      {"deadline_ms", Json(deadline_ms)}});
  return a;
}

std::vector<Anomaly> SequenceDetector::validate(const std::string& event_id,
                                                const OpenEvent& event,
                                                bool at_end,
                                                int64_t close_time) {
  std::vector<Anomaly> out;
  if (event.logs.empty()) return out;

  // Attribution: the containing automaton, or failing that the automaton
  // sharing the most patterns. No overlap at all => the event's patterns
  // were removed from the model; silently drop (Table V semantics).
  const Automaton* automaton = candidate_for(event);
  if (automaton == nullptr) {
    const std::vector<int>& observed = observed_patterns(event);
    size_t best_overlap = 0;
    for (const auto& a : model_.automata) {
      size_t overlap = 0;
      for (int pid : observed) {
        if (a.states.contains(pid)) ++overlap;
      }
      if (overlap > best_overlap) {
        best_overlap = overlap;
        automaton = &a;
      }
    }
    if (automaton == nullptr || best_overlap == 0) return out;
  }

  // Anomalies are stamped with the event's own log time: the close time
  // when the end state arrived, or the last observed log when the event
  // expired (a heartbeat's extrapolated clock says when we *noticed*, not
  // when the event went wrong).
  const int64_t anomaly_time =
      at_end || event.last_ts < 0 ? close_time : event.last_ts;
  auto emit = [&](AnomalyType type, std::string severity, std::string reason,
                  Json details = Json(JsonObject{})) {
    Anomaly a;
    a.type = type;
    a.severity = std::move(severity);
    a.reason = std::move(reason);
    a.timestamp_ms = anomaly_time;
    a.source = event.source;
    a.event_id = event_id;
    a.automaton_id = automaton->id;
    a.logs = event.raws;
    a.details = std::move(details);
    out.push_back(std::move(a));
  };

  const int first_pattern = event.logs.front().first;
  const int last_pattern = event.logs.back().first;
  const bool begin_ok = automaton->begin_patterns.contains(first_pattern);
  const bool end_ok = at_end && automaton->end_patterns.contains(last_pattern);

  if (!begin_ok) {
    emit(AnomalyType::kMissingBeginState, "high",
         "event starts with pattern " + std::to_string(first_pattern) +
             ", which is not a begin state of automaton " +
             std::to_string(automaton->id),
         Json(JsonObject{{"first_pattern",
                          Json(static_cast<int64_t>(first_pattern))}}));
  }
  if (!end_ok) {
    emit(AnomalyType::kMissingEndState, "high",
         at_end ? "event ends with pattern " + std::to_string(last_pattern) +
                      ", which is not an end state"
                : "event expired without reaching an end state of automaton " +
                      std::to_string(automaton->id),
         Json(JsonObject{
             {"last_pattern", Json(static_cast<int64_t>(last_pattern))},
             {"expired", Json(!at_end)}}));
  }

  // Occurrence counts in a flat, reusable vector indexed by pattern ID (a
  // per-validation std::map allocated a node per distinct pattern). Touched
  // slots are zeroed before returning, so the scratch stays warm.
  for (const auto& [pid, _] : event.logs) {
    if (pid < 0) continue;  // flat index cannot host negative IDs
    if (static_cast<size_t>(pid) >= occ_counts_.size()) {
      occ_counts_.resize(static_cast<size_t>(pid) + 1, 0);
    }
    if (occ_counts_[static_cast<size_t>(pid)]++ == 0) {
      occ_touched_.push_back(pid);
    }
  }
  auto occurrence_count = [this](int pid) {
    return pid >= 0 && static_cast<size_t>(pid) < occ_counts_.size()
               ? occ_counts_[static_cast<size_t>(pid)]
               : 0;
  };

  for (const auto& [pid, rule] : automaton->states) {
    const int count = occurrence_count(pid);
    if (count == 0) {
      if (rule.min_occurrences >= 1 &&
          !automaton->end_patterns.contains(pid) &&
          !automaton->begin_patterns.contains(pid)) {
        emit(AnomalyType::kMissingIntermediateState, "high",
             "state for pattern " + std::to_string(pid) +
                 " never occurred (min occurrence " +
                 std::to_string(rule.min_occurrences) + ")",
             Json(JsonObject{{"pattern_id", Json(static_cast<int64_t>(pid))}}));
      }
      // A missing begin/end pattern is already covered by type 1 above.
      continue;
    }
    if (count < rule.min_occurrences || count > rule.max_occurrences) {
      emit(AnomalyType::kOccurrenceViolation, "medium",
           "pattern " + std::to_string(pid) + " occurred " +
               std::to_string(count) + " times, outside [" +
               std::to_string(rule.min_occurrences) + ", " +
               std::to_string(rule.max_occurrences) + "]",
           Json(JsonObject{{"pattern_id", Json(static_cast<int64_t>(pid))},
                           {"count", Json(static_cast<int64_t>(count))}}));
    }
  }

  for (int pid : occ_touched_) occ_counts_[static_cast<size_t>(pid)] = 0;
  occ_touched_.clear();

  if (begin_ok && end_ok && event.first_ts >= 0 && event.last_ts >= 0) {
    int64_t duration = event.last_ts - event.first_ts;
    if (duration < automaton->min_duration_ms ||
        duration > automaton->max_duration_ms) {
      emit(AnomalyType::kDurationViolation, "medium",
           "event duration " + std::to_string(duration) + " ms outside [" +
               std::to_string(automaton->min_duration_ms) + ", " +
               std::to_string(automaton->max_duration_ms) + "] ms",
           Json(JsonObject{{"duration_ms", Json(duration)}}));
    }
  }

  if (options_.check_transitions && !automaton->transitions.empty()) {
    std::set<std::pair<int, int>> reported;
    for (size_t i = 1; i < event.logs.size(); ++i) {
      std::pair<int, int> edge{event.logs[i - 1].first, event.logs[i].first};
      if (!automaton->transitions.contains(edge) &&
          reported.insert(edge).second) {
        emit(AnomalyType::kUnknownTransition, "low",
             "transition " + std::to_string(edge.first) + " -> " +
                 std::to_string(edge.second) + " never seen in training",
             Json(JsonObject{{"from", Json(static_cast<int64_t>(edge.first))},
                             {"to", Json(static_cast<int64_t>(edge.second))}}));
      }
    }
  }
  return out;
}

int64_t SequenceDetector::compute_deadline(const OpenEvent& event,
                                           const Automaton* candidate) const {
  if (event.first_ts < 0) return kNoDeadline;
  if (candidate != nullptr) return event.first_ts + candidate->max_duration_ms;
  return event.last_ts + options_.default_timeout_ms;
}

void SequenceDetector::push_entry(int64_t deadline, uint64_t generation,
                                  std::string id) {
  heap_.push_back(DeadlineEntry{deadline, generation, std::move(id)});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const DeadlineEntry& a, const DeadlineEntry& b) {
                   // Min-heap over (deadline, id): `a` sorts after `b`.
                   if (a.deadline != b.deadline) return a.deadline > b.deadline;
                   return a.id > b.id;
                 });
}

SequenceDetector::DeadlineEntry SequenceDetector::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const DeadlineEntry& a, const DeadlineEntry& b) {
                  if (a.deadline != b.deadline) return a.deadline > b.deadline;
                  return a.id > b.id;
                });
  DeadlineEntry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

void SequenceDetector::index_event(const std::string& id, OpenEvent& event,
                                   int64_t deadline, bool is_new) {
  if (is_new) {
    event.deadline = deadline;
    if (deadline == kNoDeadline) {
      no_deadline_.insert(id);
    } else {
      event.generation = ++generation_counter_;
      push_entry(deadline, event.generation, id);
      maybe_compact();
    }
    return;
  }
  if (deadline == event.deadline) return;
  if (event.deadline == kNoDeadline) {
    // First timestamped log: the event graduates from the no-deadline set
    // into the heap. (first_ts never unsets, so the reverse cannot happen.)
    auto it = no_deadline_.find(id);
    if (it != no_deadline_.end()) no_deadline_.erase(it);
  }
  // Fresh detector-wide generation: every older heap entry for this event —
  // including any left by a previous incarnation of the same ID — is stale.
  event.generation = ++generation_counter_;
  event.deadline = deadline;
  push_entry(deadline, event.generation, id);
  maybe_compact();
}

void SequenceDetector::maybe_compact() {
  // Lazy deletion lets stale entries pile up (one per deadline change).
  // Rebuild once they outnumber live entries 2:1, which bounds heap memory
  // at O(open events) amortized.
  const size_t live = open_.size() - no_deadline_.size();
  if (heap_.size() > 64 && heap_.size() > 2 * live) rebuild_index();
}

void SequenceDetector::rebuild_index() {
  ++stats_.heap_rebuilds;
  heap_.clear();
  no_deadline_.clear();
  heap_.reserve(open_.size());
  for (auto& [id, event] : open_) {
    event.generation = ++generation_counter_;
    event.deadline = compute_deadline(event, candidate_for(event));
    if (event.deadline == kNoDeadline) {
      no_deadline_.insert(id);
    } else {
      heap_.push_back(DeadlineEntry{event.deadline, event.generation, id});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const DeadlineEntry& a, const DeadlineEntry& b) {
                   if (a.deadline != b.deadline) return a.deadline > b.deadline;
                   return a.id > b.id;
                 });
}

std::vector<Anomaly> SequenceDetector::maybe_evict(int64_t close_time_ms) {
  if (open_.size() <= options_.max_open_events) return {};
  // Victim: earliest deadline, ties by smallest ID; events that can never
  // expire (no timestamp) go first — they would otherwise pin memory.
  OpenMap::iterator victim = open_.end();
  if (!no_deadline_.empty()) {
    victim = open_.find(*no_deadline_.begin());
  } else {
    while (!heap_.empty()) {
      const DeadlineEntry& top = heap_.front();
      auto it = open_.find(top.id);
      if (it == open_.end() || it->second.generation != top.generation) {
        ++stats_.stale_pops;
        pop_entry();
        continue;
      }
      victim = it;
      pop_entry();
      break;
    }
  }
  if (victim == open_.end()) return {};  // unreachable if invariants hold

  const OpenEvent& event = victim->second;
  const Automaton* candidate = candidate_for(event);
  std::vector<Anomaly> out;
  out.push_back(make_eviction_anomaly(
      victim->first, event.source, event.raws,
      candidate != nullptr ? candidate->id : -1, event.last_ts, close_time_ms,
      open_.size(), options_.max_open_events,
      event.deadline == kNoDeadline ? -1 : event.deadline));
  if (event.deadline == kNoDeadline) {
    auto it = no_deadline_.find(victim->first);
    if (it != no_deadline_.end()) no_deadline_.erase(it);
  }
  open_.erase(victim);
  ++stats_.evicted;
  return out;
}

std::vector<Anomaly> SequenceDetector::on_log(const ParsedLog& log,
                                              std::string_view source) {
  ++stats_.logs_seen;
  const std::string* id = event_id_of(log, model_.id_fields);
  if (id == nullptr || id->empty() || !pattern_known(log.pattern_id)) {
    return {};
  }
  const std::string& event_id = *id;

  ++stats_.logs_tracked;
  auto [map_it, inserted] = open_.try_emplace(event_id);
  OpenEvent& event = map_it->second;
  if (event.logs.empty()) {
    event.source = std::string(source);
  }
  std::pair<int, int64_t> entry{log.pattern_id, log.timestamp_ms};
  if (options_.sort_by_log_time && log.timestamp_ms >= 0) {
    auto pos = std::upper_bound(
        event.logs.begin(), event.logs.end(), entry,
        [](const auto& a, const auto& b) { return a.second < b.second; });
    event.logs.insert(pos, entry);
  } else {
    event.logs.push_back(entry);
  }
  if (log.timestamp_ms >= 0) {
    if (event.first_ts < 0 || log.timestamp_ms < event.first_ts) {
      event.first_ts = log.timestamp_ms;
    }
    if (log.timestamp_ms > event.last_ts) event.last_ts = log.timestamp_ms;
  }
  if (event.raws.size() < options_.max_logs_per_event) {
    event.raws.push_back(log.raw);
  }

  const Automaton* candidate = candidate_for(event);
  if (candidate != nullptr &&
      candidate->end_patterns.contains(log.pattern_id)) {
    ++stats_.events_closed;
    auto node = open_.extract(map_it);  // heap entries go stale with it
    if (node.mapped().deadline == kNoDeadline) {
      auto it = no_deadline_.find(node.key());
      if (it != no_deadline_.end()) no_deadline_.erase(it);
    }
    return validate(node.key(), node.mapped(), /*at_end=*/true,
                    log.timestamp_ms);
  }

  index_event(map_it->first, event, compute_deadline(event, candidate),
              inserted);

  // Memory bound: evict (and report) the earliest-deadline open event.
  return maybe_evict(log.timestamp_ms);
}

std::vector<Anomaly> SequenceDetector::on_heartbeat(int64_t log_time_ms) {
  ++stats_.heartbeats;
  // Pop actually-expired entries only; everything still open stays
  // untouched, so the sweep is O(expired · log n) — the paper's linear
  // getParentStateMap() walk is gone.
  std::vector<std::pair<std::string, OpenEvent>> expired;
  while (!heap_.empty() && heap_.front().deadline < log_time_ms) {
    DeadlineEntry top = pop_entry();
    auto it = open_.find(top.id);
    if (it == open_.end() || it->second.generation != top.generation) {
      ++stats_.stale_pops;
      continue;
    }
    ++stats_.events_expired;
    expired.emplace_back(std::move(top.id), std::move(it->second));
    open_.erase(it);
  }
  if (expired.empty()) return {};
  // Report in event-ID order, exactly as an in-order sweep would.
  std::sort(expired.begin(), expired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Anomaly> out;
  for (const auto& [id, event] : expired) {
    auto anomalies = validate(id, event, /*at_end=*/false, log_time_ms);
    out.insert(out.end(), std::make_move_iterator(anomalies.begin()),
               std::make_move_iterator(anomalies.end()));
  }
  return out;
}

void SequenceDetector::update_model(SequenceModel model) {
  model_ = std::move(model);
  // Learned max-durations (and candidate attribution) changed under every
  // open event; recompute all deadlines and rebuild the index so heartbeat
  // semantics match a detector that had run under the new model all along.
  rebuild_index();
}

Json SequenceDetector::snapshot_state() const {
  // Deterministic order (by event ID) regardless of hash-map iteration, so
  // equal states serialize to equal bytes. No index state is written: the
  // deadlines are a function of (events, model) and restore recomputes them.
  std::vector<const OpenMap::value_type*> entries;
  entries.reserve(open_.size());
  for (const auto& kv : open_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  JsonArray events;
  for (const auto* kv : entries) {
    const OpenEvent& event = kv->second;
    JsonObject e;
    e.emplace_back("id", Json(kv->first));
    e.emplace_back("source", Json(event.source));
    e.emplace_back("first_ts", Json(event.first_ts));
    e.emplace_back("last_ts", Json(event.last_ts));
    JsonArray logs;
    for (const auto& [pid, ts] : event.logs) {
      JsonArray pair;
      pair.emplace_back(static_cast<int64_t>(pid));
      pair.emplace_back(ts);
      logs.emplace_back(Json(std::move(pair)));
    }
    e.emplace_back("logs", Json(std::move(logs)));
    JsonArray raws;
    for (const auto& r : event.raws) raws.emplace_back(r);
    e.emplace_back("raws", Json(std::move(raws)));
    events.emplace_back(Json(std::move(e)));
  }
  JsonObject obj;
  obj.emplace_back("open_events", Json(std::move(events)));
  return Json(std::move(obj));
}

Status SequenceDetector::restore_state(const Json& j) {
  if (!j.is_object()) return Status::Error("state snapshot not an object");
  const Json* events = j.find("open_events");
  if (events == nullptr || !events->is_array()) {
    return Status::Error("state snapshot missing open_events");
  }
  OpenMap restored;
  for (const auto& e : events->as_array()) {
    if (!e.is_object()) return Status::Error("open event not an object");
    std::string id(e.get_string("id"));
    if (id.empty()) return Status::Error("open event missing id");
    OpenEvent event;
    event.source = std::string(e.get_string("source"));
    event.first_ts = e.get_int("first_ts", -1);
    event.last_ts = e.get_int("last_ts", -1);
    if (const Json* logs = e.find("logs");
        logs != nullptr && logs->is_array()) {
      for (const auto& pair : logs->as_array()) {
        if (!pair.is_array() || pair.as_array().size() != 2) {
          return Status::Error("open event log entry malformed");
        }
        event.logs.emplace_back(
            static_cast<int>(pair.as_array()[0].as_int()),
            pair.as_array()[1].as_int());
      }
    }
    if (const Json* raws = e.find("raws");
        raws != nullptr && raws->is_array()) {
      for (const auto& r : raws->as_array()) {
        if (r.is_string()) event.raws.push_back(r.as_string());
      }
    }
    restored[std::move(id)] = std::move(event);
  }
  // Commit point: nothing above touched detector state, so a malformed
  // snapshot (e.g. the chaos test's torn checkpoint) leaves it intact.
  open_ = std::move(restored);
  rebuild_index();
  return Status::Ok();
}

}  // namespace loglens
