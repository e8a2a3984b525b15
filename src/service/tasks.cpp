#include "service/tasks.h"

#include <algorithm>

#include "metrics/timer.h"

namespace loglens {

namespace {

// Counter delta since the last sync. The underlying stats structs reset to
// zero when a parser/detector is rebuilt (model update, restore), in which
// case the whole new value is the delta.
uint64_t stat_delta(uint64_t current, uint64_t last) {
  return current >= last ? current - last : current;
}

}  // namespace

Preprocessor make_preprocessor(PreprocessorOptions options,
                               MetricsRegistry* metrics) {
  auto pre = Preprocessor::create(std::move(options));
  if (pre.ok()) return std::move(pre.value());
  // Invalid user split rules: degrade to defaults rather than dropping logs,
  // but visibly.
  registry_or_global(metrics)
      .counter("loglens_preprocessor_invalid_options_total", {},
               "Invalid preprocessor options replaced by the defaults")
      .inc();
  return std::move(Preprocessor::create({}).value());
}

ParserTask::ParserTask(std::shared_ptr<ModelBroadcast> model, size_t partition,
                       ParserTaskOptions options, MetricsRegistry* metrics)
    : model_(std::move(model)),
      partition_(partition),
      options_(std::move(options)),
      preprocessor_(make_preprocessor(options_.preprocessor, metrics)) {
  MetricsRegistry& registry = registry_or_global(metrics);
  MetricLabels labels{{"partition", std::to_string(partition)}};
  logs_total_ = &registry.counter("loglens_parser_logs_total", labels,
                                  "Log lines fed to the parser stage");
  unparsed_total_ =
      &registry.counter("loglens_parser_unparsed_total", labels,
                        "Logs no pattern parses (stateless anomalies)");
  index_hits_total_ = &registry.counter("loglens_parser_index_hits_total",
                                        labels, "Signature-index hits");
  index_misses_total_ =
      &registry.counter("loglens_parser_index_misses_total", labels,
                        "Signature-index misses (candidate groups built)");
  index_evictions_total_ =
      &registry.counter("loglens_parser_index_evictions_total", labels,
                        "Signature-index entries evicted by the LRU bound");
  match_attempts_total_ =
      &registry.counter("loglens_parser_match_attempts_total", labels,
                        "Full pattern match attempts");
  stateless_anomalies_total_ =
      &registry.counter("loglens_parser_stateless_anomalies_total", labels,
                        "Anomalies emitted by the stateless stage");
  regex_budget_exhausted_total_ = &registry.counter(
      "loglens_regex_budget_exhausted_total", labels,
      "Split-rule regex matches abandoned on VM step-budget exhaustion");
  parse_latency_us_ =
      &registry.histogram("loglens_parser_parse_latency_us", labels,
                          "Per-log parse latency (index lookup + matching)");
}

void ParserTask::refresh_model(size_t partition) {
  auto fresh = model_->value(partition);
  if (fresh == current_ && parser_ != nullptr) return;
  if (parser_ != nullptr) sync_stats();  // flush before the stats reset
  current_ = std::move(fresh);
  parser_ = std::make_unique<LogParser>(current_->patterns,
                                        preprocessor_.classifier());
  synced_ = {};
  id_fields_ = current_->sequence.id_fields;
  keywords_.reset();
  if (current_->keyword_model.is_object() &&
      !current_->keyword_model.as_object().empty()) {
    auto detector =
        KeywordDetector::from_json(current_->keyword_model, options_.keywords);
    if (detector.ok()) {
      keywords_ =
          std::make_unique<KeywordDetector>(std::move(detector.value()));
    }
  }
}

void ParserTask::sync_stats() {
  if (parser_ == nullptr) return;
  const ParserStats& stats = parser_->stats();
  logs_total_->inc(stat_delta(stats.logs, synced_.logs));
  unparsed_total_->inc(stat_delta(stats.unparsed, synced_.unparsed));
  index_hits_total_->inc(stat_delta(stats.index_hits, synced_.index_hits));
  index_misses_total_->inc(
      stat_delta(stats.groups_built, synced_.groups_built));
  index_evictions_total_->inc(
      stat_delta(stats.index_evictions, synced_.index_evictions));
  match_attempts_total_->inc(
      stat_delta(stats.match_attempts, synced_.match_attempts));
  synced_ = stats;
  // Budget exhaustion lives on the split-rule regexes this task owns, never
  // on a global, so summing per task cannot double-count across partitions.
  const uint64_t exhausted = preprocessor_.split_rule_budget_exhausted_total();
  regex_budget_exhausted_total_->inc(
      stat_delta(exhausted, synced_regex_exhausted_));
  synced_regex_exhausted_ = exhausted;
}

void ParserTask::on_batch_end(TaskContext& /*ctx*/) { sync_stats(); }

void ParserTask::process(const Message& message, TaskContext& ctx) {
  if (message.tag == MessageTag::kHeartbeat) {
    // Pass heartbeats downstream exactly once (partition 0); the detector
    // engine's partitioner re-duplicates them across its own partitions.
    if (partition_ == 0) ctx.emit(message);
    return;
  }

  refresh_model(partition_);

  // Delivery identity for emitted children: 32 seq slots per input log keep
  // child seqs per-source monotonic, so the detector's dedup guard can
  // recognize a redelivered copy after an at-least-once replay. Inputs
  // without a seq (never brokered) emit seq-less children.
  int emit_index = 0;
  auto emit = [&](Message m) {
    if (message.seq >= 0) {
      m.seq = message.seq * 32 + std::min(emit_index, 31);
      ++emit_index;
    }
    ctx.emit(std::move(m));
  };

  preprocessor_.process_into(message.value, tokenized_);

  // Extension: stateless keyword detection on the raw line.
  if (keywords_ != nullptr) {
    if (auto alert = keywords_->check(message.value, message.source,
                                      tokenized_.timestamp_ms)) {
      stateless_anomalies_total_->inc();
      emit(anomaly_to_message(std::move(*alert)));
    }
  }

  const bool parsed_ok = [&] {
    ScopedTimer timer(parse_latency_us_);
    return parser_->parse_into(std::move(tokenized_), parsed_);
  }();
  if (!parsed_ok) {
    Anomaly a;
    a.type = AnomalyType::kUnparsedLog;
    a.severity = "medium";
    a.reason = "no discovered pattern parses this log";
    a.timestamp_ms = tokenized_.timestamp_ms;
    a.source = message.source;
    a.logs = {message.value};
    stateless_anomalies_total_->inc();
    emit(anomaly_to_message(std::move(a)));
    return;
  }

  ParsedLog& parsed = parsed_;

  // Extension: KPI range checks on the parsed fields.
  if (current_->field_ranges.tracked_fields() > 0) {
    for (auto& a : current_->field_ranges.check(parsed, message.source)) {
      stateless_anomalies_total_->inc();
      emit(anomaly_to_message(std::move(a)));
    }
  }

  // Keyed partitioning for the stateful stage: use the event id when this
  // pattern has one, so an event's logs land on one detector partition.
  std::string key = message.source;
  if (auto it = id_fields_.find(parsed.pattern_id); it != id_fields_.end()) {
    for (const auto& [k, v] : parsed.fields) {
      if (k == it->second && v.is_string() && !v.as_string().empty()) {
        key = v.as_string();
        break;
      }
    }
  }
  // Moving the scratch ParsedLog into the payload is safe: the next
  // parse_into fully rewrites it (emit_fields resizes, raw/ids reassigned).
  emit(parsed_to_message(std::move(parsed_), std::move(key), message.source));
}

DetectorTask::DetectorTask(std::shared_ptr<ModelBroadcast> model,
                           size_t partition, DetectorOptions options,
                           MetricsRegistry* metrics)
    : model_(std::move(model)), partition_(partition), options_(options) {
  MetricsRegistry& registry = registry_or_global(metrics);
  MetricLabels labels{{"partition", std::to_string(partition)}};
  logs_total_ = &registry.counter("loglens_detector_logs_total", labels,
                                  "Parsed logs fed to the detector stage");
  tracked_total_ =
      &registry.counter("loglens_detector_tracked_total", labels,
                        "Logs that joined an open event (state transitions)");
  heartbeats_total_ = &registry.counter("loglens_detector_heartbeats_total",
                                        labels, "Heartbeat sweeps executed");
  events_closed_total_ =
      &registry.counter("loglens_detector_events_closed_total", labels,
                        "Events closed by end-state arrival");
  events_expired_total_ =
      &registry.counter("loglens_detector_events_expired_total", labels,
                        "Events expired by heartbeat sweeps");
  evicted_total_ = &registry.counter(
      "loglens_detector_open_evictions_total", labels,
      "Open events evicted by the max_open_events bound (each also emits an "
      "OPEN_STATE_EVICTED anomaly)");
  stale_pops_total_ = &registry.counter(
      "loglens_detector_stale_pops_total", labels,
      "Superseded deadline-heap entries discarded by lazy deletion");
  heap_rebuilds_total_ = &registry.counter(
      "loglens_detector_heap_rebuilds_total", labels,
      "Deadline-index rebuilds (compaction, model update, restore)");
  anomalies_total_ =
      &registry.counter("loglens_detector_anomalies_total", labels,
                        "Anomalies emitted by the stateful stage");
  dedup_skipped_total_ = &registry.counter(
      "loglens_detector_dedup_skipped_total", labels,
      "Redelivered messages skipped by the at-least-once dedup guard");
  open_events_ = &registry.gauge("loglens_detector_open_events", labels,
                                 "Open events held at the last batch end");
  deadline_heap_size_ = &registry.gauge(
      "loglens_detector_deadline_heap_size", labels,
      "Deadline-heap entries (live + stale) at the last batch end");
}

void DetectorTask::refresh_model(size_t partition) {
  auto fresh = model_->value(partition);
  if (fresh == current_ && detector_ != nullptr) return;
  current_ = std::move(fresh);
  if (detector_ == nullptr) {
    detector_ =
        std::make_unique<SequenceDetector>(current_->sequence, options_);
  } else {
    // Dynamic model update: swap rules, keep open states (Section V-A).
    detector_->update_model(current_->sequence);
  }
}

void DetectorTask::sync_stats() {
  if (detector_ == nullptr) return;
  const DetectorStats& stats = detector_->stats();
  logs_total_->inc(stat_delta(stats.logs_seen, synced_.logs_seen));
  tracked_total_->inc(stat_delta(stats.logs_tracked, synced_.logs_tracked));
  heartbeats_total_->inc(stat_delta(stats.heartbeats, synced_.heartbeats));
  events_closed_total_->inc(
      stat_delta(stats.events_closed, synced_.events_closed));
  events_expired_total_->inc(
      stat_delta(stats.events_expired, synced_.events_expired));
  evicted_total_->inc(stat_delta(stats.evicted, synced_.evicted));
  stale_pops_total_->inc(stat_delta(stats.stale_pops, synced_.stale_pops));
  heap_rebuilds_total_->inc(
      stat_delta(stats.heap_rebuilds, synced_.heap_rebuilds));
  synced_ = stats;
  open_events_->set(static_cast<int64_t>(detector_->open_events()));
  deadline_heap_size_->set(
      static_cast<int64_t>(detector_->deadline_index_size()));
}

void DetectorTask::on_batch_end(TaskContext& /*ctx*/) { sync_stats(); }

void DetectorTask::process(const Message& message, TaskContext& ctx) {
  // Dedup guard (data and anomaly messages only — heartbeats are idempotent
  // sweeps and carry no per-source identity). Within a partition the seqs a
  // source delivers are strictly increasing, so seq <= watermark means this
  // exact copy was already applied: an engine retry after a mid-mutation
  // throw, or an offset replay without a matching state rollback.
  if (message.seq >= 0 &&
      (message.tag == MessageTag::kData ||
       message.tag == MessageTag::kAnomaly)) {
    auto [it, inserted] = seen_seq_.try_emplace(message.source, -1);
    if (!inserted && message.seq <= it->second) {
      dedup_skipped_total_->inc();
      return;
    }
    it->second = message.seq;
  }
  if (message.tag == MessageTag::kAnomaly) {
    ctx.emit(message);  // stateless anomalies pass through to the sink
    return;
  }
  refresh_model(partition_);

  std::vector<Anomaly> anomalies;
  if (message.tag == MessageTag::kHeartbeat) {
    anomalies = detector_->on_heartbeat(message.timestamp_ms);
  } else if (const ParsedLog* parsed = parsed_payload_view(message)) {
    // Read the parser's ParsedLog in place: no parse, no field copies.
    anomalies = detector_->on_log(*parsed, message.source);
  } else {
    return;  // a data message without a ParsedLog is malformed: dropped
  }
  anomalies_total_->inc(anomalies.size());
  for (auto& a : anomalies) {
    ctx.emit(anomaly_to_message(std::move(a)));
  }
}

}  // namespace loglens
