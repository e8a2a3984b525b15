// The two streaming stages as partition tasks: the stateless parser stage
// and the stateful sequence-detector stage.
//
// Each task reads the composite model through a rebroadcastable Broadcast
// variable. A task detects a model update by pointer identity of the pulled
// value: the parser stage rebuilds its (stateless) LogParser; the detector
// stage calls SequenceDetector::update_model, which swaps rules while
// preserving every open state — the zero-downtime behaviour of Section V-A.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "automata/detector.h"
#include "detectors/field_range.h"
#include "detectors/keyword.h"
#include "metrics/metrics.h"
#include "parser/log_parser.h"
#include "service/model.h"
#include "service/wire.h"
#include "streaming/engine.h"
#include "tokenize/preprocessor.h"

namespace loglens {

using ModelBroadcast = Broadcast<CompositeModel>;

// The extension detectors run whenever the model carries them (field
// ranges, a keyword model); the signature index keeps LogParser's default
// bound.
struct ParserTaskOptions {
  PreprocessorOptions preprocessor;
  KeywordDetectorOptions keywords;
};

// The preprocessor for `options`. Invalid options (a split rule that does
// not compile) fall back to the defaults rather than dropping logs; each
// fallback counts in loglens_preprocessor_invalid_options_total of
// `metrics` (nullptr -> the global registry).
Preprocessor make_preprocessor(PreprocessorOptions options,
                               MetricsRegistry* metrics);

class ParserTask : public PartitionTask {
 public:
  ParserTask(std::shared_ptr<ModelBroadcast> model, size_t partition,
             ParserTaskOptions options = {},
             MetricsRegistry* metrics = nullptr);

  void process(const Message& message, TaskContext& ctx) override;
  void on_batch_end(TaskContext& ctx) override;

  const ParserStats* parser_stats() const {
    return parser_ ? &parser_->stats() : nullptr;
  }

 private:
  void refresh_model(size_t partition);
  void sync_stats();

  std::shared_ptr<ModelBroadcast> model_;
  size_t partition_;
  ParserTaskOptions options_;
  Preprocessor preprocessor_;
  std::shared_ptr<const CompositeModel> current_;
  std::unique_ptr<LogParser> parser_;
  IdFieldMap id_fields_;
  std::unique_ptr<KeywordDetector> keywords_;

  // Metric handles + the last ParserStats values already pushed to them
  // (the parser is rebuilt on model updates, which resets its stats).
  Counter* logs_total_ = nullptr;
  Counter* unparsed_total_ = nullptr;
  Counter* index_hits_total_ = nullptr;
  Counter* index_misses_total_ = nullptr;
  Counter* index_evictions_total_ = nullptr;
  Counter* match_attempts_total_ = nullptr;
  Counter* stateless_anomalies_total_ = nullptr;
  Counter* regex_budget_exhausted_total_ = nullptr;
  Histogram* parse_latency_us_ = nullptr;
  ParserStats synced_;
  // Last regex budget-exhaustion total pushed (split rules; per-task
  // counters, so the sync cannot double-count across partitions).
  uint64_t synced_regex_exhausted_ = 0;

  // Reused per-message buffers: process_into/parse_into fill these in place,
  // keeping the steady-state parse path allocation-free.
  TokenizedLog tokenized_;
  ParsedLog parsed_;
};

class DetectorTask : public PartitionTask {
 public:
  DetectorTask(std::shared_ptr<ModelBroadcast> model, size_t partition,
               DetectorOptions options = {},
               MetricsRegistry* metrics = nullptr);

  void process(const Message& message, TaskContext& ctx) override;
  void on_batch_end(TaskContext& ctx) override;

  size_t open_events() const {
    return detector_ ? detector_->open_events() : 0;
  }
  // Checkpointing hooks (called between batches by the service).
  Json snapshot_state() const {
    return detector_ ? detector_->snapshot_state()
                     : Json(JsonObject{{"open_events", Json(JsonArray{})}});
  }
  Status restore_state(const Json& j, const CompositeModel& model) {
    if (detector_ == nullptr) {
      detector_ = std::make_unique<SequenceDetector>(model.sequence, options_);
      current_.reset();  // next refresh re-pulls and update_model()s
    }
    // After a state rollback the replayed copies ARE the authoritative
    // input again — forget the watermarks or they would all be skipped.
    seen_seq_.clear();
    return detector_->restore_state(j);
  }
  const DetectorStats* detector_stats() const {
    return detector_ ? &detector_->stats() : nullptr;
  }

 private:
  void refresh_model(size_t partition);
  void sync_stats();

  std::shared_ptr<ModelBroadcast> model_;
  size_t partition_;
  DetectorOptions options_;
  std::shared_ptr<const CompositeModel> current_;
  std::unique_ptr<SequenceDetector> detector_;
  // At-least-once dedup guard: highest Message::seq already processed per
  // source. Redelivered copies (engine retry after a mid-mutation throw, or
  // offset replay after recovery without a state rollback) are skipped so
  // the detector never double-applies a log. Heartbeats/control are exempt
  // (idempotent); cleared by restore_state (the rollback re-legitimizes
  // replays).
  std::map<std::string, int64_t> seen_seq_;

  Counter* logs_total_ = nullptr;
  Counter* tracked_total_ = nullptr;
  Counter* heartbeats_total_ = nullptr;
  Counter* events_closed_total_ = nullptr;
  Counter* events_expired_total_ = nullptr;
  Counter* evicted_total_ = nullptr;
  Counter* stale_pops_total_ = nullptr;
  Counter* heap_rebuilds_total_ = nullptr;
  Counter* anomalies_total_ = nullptr;
  Counter* dedup_skipped_total_ = nullptr;
  Gauge* open_events_ = nullptr;
  Gauge* deadline_heap_size_ = nullptr;
  DetectorStats synced_;
};

}  // namespace loglens
