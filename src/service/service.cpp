#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/clock.h"
#include "common/hash.h"
#include "common/sched.h"
#include "trace/trace.h"

namespace loglens {

namespace {

// Per-role tiered-store options: each store flushes under its own
// subdirectory of storage.dir, labels its metrics by role, and inherits the
// service-level registry/injector unless explicitly overridden.
DocumentStoreOptions role_store_options(const ServiceOptions& o,
                                        const char* role) {
  DocumentStoreOptions s = o.storage;
  if (!s.dir.empty()) s.dir += std::string("/") + role;
  s.name = role;
  if (s.metrics == nullptr) s.metrics = o.metrics;
  if (s.faults == nullptr) s.faults = o.faults;
  return s;
}

LogManagerOptions log_manager_options(const ServiceOptions& o) {
  LogManagerOptions lm;
  lm.dead_letter_topic = o.dead_letter_topic;
  lm.store = role_store_options(o, "logs");
  return lm;
}

}  // namespace

LogLensService::LogLensService(ServiceOptions options)
    : options_(std::move(options)),
      broker_(options_.metrics, options_.faults),
      log_manager_(broker_, log_manager_options(options_)),
      heartbeat_(broker_, HeartbeatOptions{"parsed", "parsed"},
                 options_.metrics),
      anomaly_store_(role_store_options(options_, "anomalies")),
      anomaly_sink_(broker_, "anomalies") {
  for (const char* topic :
       {"ingest", "logs", "parsed", "anomalies", "metrics"}) {
    broker_.create_topic(topic);
  }
  if (!options_.dead_letter_topic.empty()) {
    broker_.create_topic(options_.dead_letter_topic);
  }
  recoveries_total_ = &registry_or_global(options_.metrics)
                           .counter("loglens_service_recoveries_total", {},
                                    "Successful checkpoint recoveries");

  parser_broadcast_ = std::make_shared<ModelBroadcast>(
      1, CompositeModel{}, options_.parser_partitions);
  detector_broadcast_ = std::make_shared<ModelBroadcast>(
      2, CompositeModel{}, options_.detector_partitions);

  EngineOptions parser_opts;
  parser_opts.partitions = options_.parser_partitions;
  parser_opts.workers = options_.workers;
  parser_opts.metrics = options_.metrics;
  parser_opts.stage = "parser";
  parser_opts.faults = options_.faults;
  parser_opts.task_max_attempts = options_.task_max_attempts;
  // Stateless stage: partition by source so one source's timestamp-format
  // cache stays hot on one partition.
  parser_opts.partitioner = [](const Message& m, size_t n) {
    return m.source.empty() ? 0 : static_cast<size_t>(fnv1a(m.source) % n);
  };
  parser_engine_ = std::make_unique<StreamEngine>(
      parser_opts, [this](size_t p) -> std::unique_ptr<PartitionTask> {
        return std::make_unique<ParserTask>(parser_broadcast_, p,
                                            options_.parser, options_.metrics);
      });

  EngineOptions detector_opts;
  detector_opts.partitions = options_.detector_partitions;
  detector_opts.workers = options_.workers;
  detector_opts.metrics = options_.metrics;
  detector_opts.stage = "detector";
  detector_opts.faults = options_.faults;
  detector_opts.task_max_attempts = options_.task_max_attempts;
  // Stateful stage: default key-hash partitioner; the parser stage keys
  // parsed logs by event id, so an event's logs share a partition.
  detector_engine_ = std::make_unique<StreamEngine>(
      detector_opts, [this](size_t p) -> std::unique_ptr<PartitionTask> {
        return std::make_unique<DetectorTask>(
            detector_broadcast_, p, options_.detector, options_.metrics);
      });

  JobOptions parser_job;
  parser_job.input_topic = "logs";
  parser_job.output_topic = "parsed";
  parser_job.batch_size = 2048;
  parser_job.name = "parser";
  parser_job.metrics_report_every = options_.metrics_report_every;
  parser_job.metrics = options_.metrics;
  parser_job.dead_letter_topic = options_.dead_letter_topic;
  parser_runner_ =
      std::make_unique<JobRunner>(broker_, *parser_engine_, parser_job);
  JobOptions detector_job = parser_job;
  detector_job.input_topic = "parsed";
  detector_job.output_topic = "anomalies";
  detector_job.name = "detector";
  detector_runner_ =
      std::make_unique<JobRunner>(broker_, *detector_engine_, detector_job);

  model_controller_ = std::make_unique<ModelController>(
      model_store_,
      std::vector<ModelController::Target>{
          {parser_engine_.get(), parser_broadcast_},
          {detector_engine_.get(), detector_broadcast_}});
  model_manager_ =
      std::make_unique<ModelManager>(model_store_, *model_controller_);
}

LogLensService::~LogLensService() { stop(); }

BuildResult LogLensService::train(
    const std::vector<std::string>& training_lines) {
  ModelBuilder builder(options_.build, options_.metrics);
  BuildResult result = builder.build(training_lines);
  MetricsRegistry& registry = registry_or_global(options_.metrics);
  const std::pair<const char*, double> phases[] = {
      {"tokenize", result.tokenize_s},
      {"discover", result.discover_s},
      {"parse", result.parse_s},
      {"learn", result.learn_s}};
  for (const auto& [phase, seconds] : phases) {
    registry
        .histogram("loglens_model_build_us", {{"phase", phase}},
                   "Model build wall time per phase")
        .record(static_cast<uint64_t>(seconds * 1e6));
  }
  model_manager_->deploy(options_.model_name, result.model);
  if (!running_) drain();  // let the rebroadcast land immediately
  return result;
}

Agent LogLensService::make_agent(const std::string& source) {
  return Agent(broker_, AgentOptions{source, "ingest"});
}

void LogLensService::start() {
  if (running_.exchange(true)) return;
  parser_runner_->start();
  detector_runner_->start();
  if (options_.supervise && !options_.checkpoint_path.empty() &&
      !supervising_.exchange(true)) {
    supervisor_ = sched::spawn_named("supervisor", [this] { supervisor_loop(); });
  }
}

void LogLensService::stop() {
  // Supervisor first: it restarts runners on failure, so it must be gone
  // before the runners are told to stay down.
  if (supervising_.exchange(false) && supervisor_.joinable()) {
    sched::BlockingRegion joining;
    supervisor_.join();
  }
  if (!running_.exchange(false)) return;
  parser_runner_->stop();
  detector_runner_->stop();
  drain();
}

void LogLensService::supervisor_loop() {
  while (supervising_.load()) {
    sched::sleep_for_ms(static_cast<uint64_t>(options_.supervise_interval_ms));
    LOGLENS_SCHED_POINT("service.supervise_tick");
    if (!supervising_.load()) return;
    if (parser_runner_->failed() || detector_runner_->failed()) {
      // Failed recovery (e.g. the checkpoint file is being faulted too) is
      // retried on the next tick.
      (void)recover();
    }
  }
}

void LogLensService::sink_drain() {
  for (auto batch = anomaly_sink_.poll(4096); !batch.empty();
       batch = anomaly_sink_.poll(4096)) {
    // The store-side terminus of the trace: absorb this batch under the
    // context of the message that produced it, so the sink span chains to
    // the detector's pipeline span.
    trace::TraceContext ctx;
    const uint64_t start_us = trace_clock::now_us();
    if (trace::enabled()) {
      for (const auto& m : batch) {
        if (m.trace_id != 0) {
          ctx.trace_id = m.trace_id;
          ctx.span_id = m.parent_span;
          break;
        }
      }
    }
    trace::ContextScope scope(ctx);
    for (const auto& m : batch) {
      auto a = anomaly_from_message(m);
      if (a.ok()) anomaly_store_.add(a.value());
    }
    registry_or_global(options_.metrics)
        .record_span("sink.flush", start_us,
                     trace_clock::now_us() - start_us);
  }
}

void LogLensService::drain() {
  // One pass can enqueue work for the next stage, so loop to a fixed point:
  // nothing moved AND nothing is still buffered. The lag checks matter under
  // fault injection, where an empty poll can be an injected fetch fault
  // rather than an empty topic. A round that parks a runner recovers in
  // place (checkpoint configured) and keeps draining — the rewound offsets
  // are reprocessed by later rounds.
  for (int round = 0; round < 32; ++round) {
    size_t moved = log_manager_.drain();
    bool recovered = false;
    bool idle = true;
    if (!running_.load()) {
      parser_runner_->drain();
      detector_runner_->drain();
      if (parser_runner_->failed() || detector_runner_->failed()) {
        if (options_.checkpoint_path.empty()) break;  // leave failure visible
        recovered = recover().ok();
        if (!recovered) break;  // cannot repair; don't spin
      }
      idle = parser_runner_->input_lag() == 0 &&
             detector_runner_->input_lag() == 0;
    }
    // Every round, in both modes: the heartbeat's consumer would otherwise
    // hold all of `parsed` until the next tick.
    heartbeat_.observe();
    sink_drain();
    if (moved == 0 && !recovered && idle && log_manager_.input_lag() == 0 &&
        anomaly_sink_.caught_up() && round > 0) {
      break;
    }
  }
}

Status LogLensService::checkpoint(const std::string& path) {
  JsonObject obj;
  obj.emplace_back("model_name", Json(options_.model_name));
  auto entry = model_store_.latest(options_.model_name);
  obj.emplace_back("model", entry ? entry->model->to_json() : Json(nullptr));
  JsonArray events;
  for (size_t p = 0; p < detector_engine_->partitions(); ++p) {
    auto* task = dynamic_cast<DetectorTask*>(&detector_engine_->task(p));
    if (task == nullptr) continue;
    Json snap = task->snapshot_state();
    if (const Json* open = snap.find("open_events");
        open != nullptr && open->is_array()) {
      for (const auto& e : open->as_array()) events.push_back(e);
    }
  }
  obj.emplace_back("open_events", Json(std::move(events)));
  // The store's count and the broker positions at checkpoint time;
  // recover() rolls back to these. Only meaningful on a quiesced service
  // (header contract), where they form a consistent cut with the detector
  // state above.
  obj.emplace_back("anomaly_count",
                   Json(static_cast<int64_t>(anomaly_store_.count())));
  // Each offset is written as a one-element array, the shape files had when
  // a topic could have partitions, so files of either age recover.
  auto offset_json = [](uint64_t offset) {
    return Json(JsonArray{Json(static_cast<int64_t>(offset))});
  };
  const uint64_t parser_offset = parser_runner_->consumer_offset();
  const uint64_t detector_offset = detector_runner_->consumer_offset();
  JsonObject offsets;
  offsets.emplace_back("parser", offset_json(parser_offset));
  offsets.emplace_back("detector", offset_json(detector_offset));
  // Pin what recover() would replay from this checkpoint. The previous
  // pins stay until the rename publishes it: a failed or torn write leaves
  // the previous file, and its offsets, in force.
  std::unique_ptr<RetentionHold> logs_pin;
  std::unique_ptr<RetentionHold> parsed_pin;
  if (!options_.checkpoint_path.empty() && path == options_.checkpoint_path) {
    logs_pin = std::make_unique<RetentionHold>(broker_, "logs");
    parsed_pin = std::make_unique<RetentionHold>(broker_, "parsed");
    if (Status s = logs_pin->move_to(parser_offset); !s.ok()) return s;
    if (Status s = parsed_pin->move_to(detector_offset); !s.ok()) return s;
  }
  obj.emplace_back("offsets", Json(std::move(offsets)));

  std::string payload = Json(std::move(obj)).dump() + "\n";
  const std::string tmp = path + ".tmp";
  FaultAction fault = options_.faults != nullptr
                          ? options_.faults->check(kFaultSiteCheckpointWrite)
                          : FaultAction::kNone;
  if (fault == FaultAction::kThrow) {
    return Status::Error("checkpoint write failed (injected)");
  }
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Error("cannot write checkpoint: " + tmp);
    if (fault == FaultAction::kTornWrite) {
      // Simulated crash mid-write: half the payload, no rename. The
      // previous checkpoint at `path` stays intact — this is exactly what
      // the tmp+rename protocol exists for.
      out << payload.substr(0, payload.size() / 2);
      return Status::Error("checkpoint write torn (injected)");
    }
    out << payload;
    if (!out) return Status::Error("checkpoint write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot publish checkpoint: " + path);
  }
  if (logs_pin != nullptr) {
    logs_pin_ = std::move(logs_pin);
    parsed_pin_ = std::move(parsed_pin);
  }
  return Status::Ok();
}

Status LogLensService::restore(const std::string& path) {
  return restore_internal(path, /*in_place=*/false);
}

Status LogLensService::restore_internal(const std::string& path,
                                        bool in_place) {
  std::ifstream in(path);
  if (!in) return Status::Error("cannot open checkpoint: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto j = Json::parse(text);
  if (!j.ok()) return j.status();
  const Json* model_blob = j->find("model");
  if (model_blob == nullptr || !model_blob->is_object()) {
    return Status::Error("checkpoint missing model");
  }

  // In-place recovery rewinds the pipeline to the checkpoint's cut. Every
  // part of the file that can refuse it is checked here, before the first
  // change to the service: a refused recover() leaves the model, the
  // detector state, the offsets and the store as they were.
  uint64_t parser_offset = 0;
  uint64_t detector_offset = 0;
  size_t anomaly_count = 0;
  if (in_place) {
    const Json* offsets = j->find("offsets");
    if (offsets == nullptr || !offsets->is_object()) {
      return Status::Error("checkpoint missing offsets (pre-recovery format?)");
    }
    // One offset per runner, stored as a one-element array; the input
    // topic's low-water mark must not have passed it (the checkpoint pins
    // keep it stored, so a freed offset means the file is not the checkpoint
    // this service pinned).
    auto offset_of = [&](const char* key, const char* topic,
                         uint64_t* out) -> Status {
      const Json* arr = offsets->find(key);
      if (arr == nullptr || !arr->is_array() || arr->as_array().size() != 1 ||
          !arr->as_array()[0].is_int() || arr->as_array()[0].as_int() < 0) {
        return Status::Error(std::string("checkpoint offsets.") + key +
                             " is not one offset");
      }
      *out = static_cast<uint64_t>(arr->as_array()[0].as_int());
      if (*out < broker_.low_water(topic)) {
        return Status::Error("cannot replay from checkpoint: offset " +
                             std::to_string(*out) +
                             " is below the low-water mark of " + topic);
      }
      return Status::Ok();
    };
    if (Status s = offset_of("parser", "logs", &parser_offset); !s.ok()) {
      return s;
    }
    if (Status s = offset_of("detector", "parsed", &detector_offset);
        !s.ok()) {
      return s;
    }
    const Json* count = j->find("anomaly_count");
    if (count == nullptr || !count->is_int() || count->as_int() < 0 ||
        static_cast<size_t>(count->as_int()) > anomaly_store_.count()) {
      return Status::Error(
          "checkpoint anomaly_count missing or past the store");
    }
    anomaly_count = static_cast<size_t>(count->as_int());
  }

  if (auto v = model_manager_->deploy_json(options_.model_name, *model_blob);
      !v.ok()) {
    return v.status();
  }
  auto model = model_manager_->get(options_.model_name);
  if (!model.ok()) return model.status();
  if (!running_.load()) {
    // Land the rebroadcast without consuming queued input: control ops are
    // applied at the head of a batch, so empty batches suffice (a plain
    // drain() here would replay input before the offsets below are rewound).
    try {
      parser_engine_->run_batch({});
      detector_engine_->run_batch({});
    } catch (const std::exception& e) {
      return Status::Error(std::string("restore rebroadcast failed: ") +
                           e.what());
    }
  }

  // Re-shard the open events over this service's detector partitions using
  // the same key hash the engine's partitioner applies to event ids.
  const size_t n = detector_engine_->partitions();
  std::vector<JsonArray> shards(n);
  if (const Json* events = j->find("open_events");
      events != nullptr && events->is_array()) {
    for (const auto& e : events->as_array()) {
      std::string_view id = e.get_string("id");
      size_t p = id.empty() ? 0 : static_cast<size_t>(fnv1a(id) % n);
      shards[p].push_back(e);
    }
  }
  for (size_t p = 0; p < n; ++p) {
    auto* task = dynamic_cast<DetectorTask*>(&detector_engine_->task(p));
    if (task == nullptr) continue;
    JsonObject slice;
    slice.emplace_back("open_events", Json(std::move(shards[p])));
    Status s = task->restore_state(Json(std::move(slice)), *model.value());
    if (!s.ok()) return s;
  }
  if (!in_place) return Status::Ok();

  // Both offsets were checked above; on a quiesced service no low-water
  // mark moves in between, so these seeks are not expected to fail.
  if (Status s = parser_runner_->seek(parser_offset); !s.ok()) {
    return Status::Error("cannot replay from checkpoint: " + s.message());
  }
  if (Status s = detector_runner_->seek(detector_offset); !s.ok()) {
    return Status::Error("cannot replay from checkpoint: " + s.message());
  }

  // Exactly-once output despite the at-least-once replay: cut the anomaly
  // store back to its checkpointed count and skip the sink past everything
  // currently appended — the replay re-emits the post-checkpoint anomalies.
  if (Status s = anomaly_store_.truncate(anomaly_count); !s.ok()) {
    return Status::Error("cannot roll back anomalies: " + s.message());
  }
  anomaly_sink_.seek(broker_.end_offset("anomalies"));
  return Status::Ok();
}

Status LogLensService::recover() {
  LOGLENS_SCHED_POINT("service.recover");
  RankedMutexLock lock(recover_mu_);
  if (options_.checkpoint_path.empty()) {
    return Status::Error("no checkpoint_path configured");
  }
  const bool was_running = running_.exchange(false);
  if (was_running) {
    parser_runner_->stop();
    detector_runner_->stop();
  }
  Status s = restore_internal(options_.checkpoint_path, /*in_place=*/true);
  if (s.ok()) {
    parser_runner_->clear_failure();
    detector_runner_->clear_failure();
    recoveries_.fetch_add(1);
    recoveries_total_->inc();
  }
  if (was_running) {
    running_.store(true);
    parser_runner_->start();
    detector_runner_->start();
  }
  return s;
}

StatusOr<LogLensService::ReplayResult> LogLensService::replay_archive(
    const std::string& source, int64_t from_ms, int64_t to_ms) {
  auto deployed = model_manager_->get(options_.model_name);
  if (!deployed.ok()) return StatusOr<ReplayResult>(deployed.status());
  const CompositeModel& model = *deployed.value();
  std::vector<std::string> lines = log_manager_.log_store().fetch(source);
  if (lines.empty()) {
    return StatusOr<ReplayResult>::Error("no archived logs for source: " +
                                         source);
  }

  Preprocessor pre = model.make_preprocessor();
  LogParser parser(model.patterns, pre.classifier());
  SequenceDetector detector(model.sequence, options_.detector);

  ReplayResult result;
  int64_t max_ts = -1;
  for (const auto& line : lines) {
    TokenizedLog tokenized = pre.process(line);
    if (tokenized.timestamp_ms >= 0 &&
        (tokenized.timestamp_ms < from_ms || tokenized.timestamp_ms > to_ms)) {
      continue;
    }
    ++result.logs;
    max_ts = std::max(max_ts, tokenized.timestamp_ms);
    auto outcome = parser.parse(tokenized);
    if (!outcome.log.has_value()) {
      ++result.unparsed;
      Anomaly a;
      a.type = AnomalyType::kUnparsedLog;
      a.reason = "no pattern parses this archived log";
      a.timestamp_ms = tokenized.timestamp_ms;
      a.source = source;
      a.logs = {line};
      result.anomalies.push_back(std::move(a));
      continue;
    }
    auto found = detector.on_log(*outcome.log, source);
    result.anomalies.insert(result.anomalies.end(), found.begin(),
                            found.end());
  }
  if (max_ts >= 0) {
    auto expired = detector.on_heartbeat(max_ts + 365LL * 24 * 3600 * 1000);
    result.anomalies.insert(result.anomalies.end(), expired.begin(),
                            expired.end());
  }
  return result;
}

size_t LogLensService::open_events() {
  size_t total = 0;
  for (size_t p = 0; p < detector_engine_->partitions(); ++p) {
    auto* task = dynamic_cast<DetectorTask*>(&detector_engine_->task(p));
    if (task != nullptr) total += task->open_events();
  }
  return total;
}

}  // namespace loglens
