#include "traced_pipeline.h"

#include "common/hash.h"

namespace perfbench {

using namespace loglens;

namespace {

// The options LogLensService derives for its stores (service.cpp).
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
  LogManagerOptions lm{"ingest", "logs"};
  lm.store = role_store_options(o, "logs");
  return lm;
}

EngineOptions engine_options(const ServiceOptions& o, size_t partitions,
                             const char* stage) {
  EngineOptions e;
  e.partitions = partitions;
  e.workers = o.workers;
  e.metrics = o.metrics;
  e.stage = stage;
  e.faults = o.faults;
  e.task_max_attempts = o.task_max_attempts;
  return e;
}

}  // namespace

ParserCounts& ParserCounts::operator+=(const ParserCounts& o) {
  logs += o.logs;
  unparsed += o.unparsed;
  index_hits += o.index_hits;
  match_attempts += o.match_attempts;
  set_fallbacks += o.set_fallbacks;
  return *this;
}

void Stage::drain() {
  const Clock::time_point start = Clock::now();
  job->drain();
  job_s += seconds_between(start, Clock::now());
  std::vector<std::vector<double>> per_partition;
  size_t nbatches = SIZE_MAX;
  for (TimedTask* t : timers) {
    per_partition.push_back(t->take_batch_seconds());
    nbatches = std::min(nbatches, per_partition.back().size());
  }
  for (size_t b = 0; b < nbatches; ++b) {
    double longest = 0, total = 0;
    for (const auto& batch_s : per_partition) {
      longest = std::max(longest, batch_s[b]);
      total += batch_s[b];
    }
    critical_s += longest;
    parallel_s += total - longest;
  }
}

TracedPipeline::TracedPipeline(const Inputs& in)
    : options_(in.options),
      broker_(options_.metrics, options_.faults),
      log_manager_(broker_, log_manager_options(options_)),
      heartbeat_(broker_, HeartbeatOptions{"parsed", "parsed"},
                 options_.metrics),
      anomaly_store_(role_store_options(options_, "anomalies")),
      sink_(broker_, "anomalies") {
  for (const char* topic :
       {"ingest", "logs", "parsed", "anomalies", "metrics"}) {
    broker_.create_topic(topic, 1);
  }
  if (!options_.dead_letter_topic.empty()) {
    broker_.create_topic(options_.dead_letter_topic, 1);
  }
  parser_broadcast_ = std::make_shared<ModelBroadcast>(
      1, CompositeModel{}, options_.parser_partitions);
  detector_broadcast_ = std::make_shared<ModelBroadcast>(
      2, CompositeModel{}, options_.detector_partitions);

  EngineOptions parser_opts =
      engine_options(options_, options_.parser_partitions, "parser");
  parser_opts.partitioner = [](const Message& m, size_t n) {
    return m.source.empty() ? 0 : static_cast<size_t>(fnv1a(m.source) % n);
  };
  parser_tasks_.resize(options_.parser_partitions);
  parser_.timers.resize(options_.parser_partitions);
  parser_.engine = std::make_unique<StreamEngine>(
      parser_opts, [this](size_t p) -> std::unique_ptr<PartitionTask> {
        auto task = std::make_unique<ParserTask>(
            parser_broadcast_, p, options_.parser, options_.metrics);
        parser_tasks_[p] = task.get();
        auto timed = std::make_unique<TimedTask>(std::move(task));
        parser_.timers[p] = timed.get();
        return timed;
      });

  detector_tasks_.resize(options_.detector_partitions);
  detector_.timers.resize(options_.detector_partitions);
  detector_.engine = std::make_unique<StreamEngine>(
      engine_options(options_, options_.detector_partitions, "detector"),
      [this](size_t p) -> std::unique_ptr<PartitionTask> {
        auto task = std::make_unique<DetectorTask>(
            detector_broadcast_, p, options_.detector, options_.metrics);
        detector_tasks_[p] = task.get();
        auto timed = std::make_unique<TimedTask>(std::move(task));
        detector_.timers[p] = timed.get();
        return timed;
      });

  JobOptions parser_job;
  parser_job.input_topic = "logs";
  parser_job.output_topic = "parsed";
  parser_job.batch_size = 2048;
  parser_job.name = "parser";
  parser_job.metrics_report_every = options_.metrics_report_every;
  parser_job.metrics = options_.metrics;
  parser_job.dead_letter_topic = options_.dead_letter_topic;
  parser_.job = std::make_unique<JobRunner>(broker_, *parser_.engine,
                                            parser_job);
  JobOptions detector_job = parser_job;
  detector_job.input_topic = "parsed";
  detector_job.output_topic = "anomalies";
  detector_job.name = "detector";
  detector_.job = std::make_unique<JobRunner>(broker_, *detector_.engine,
                                              detector_job);

  model_controller_ = std::make_unique<ModelController>(
      model_store_, std::vector<ModelController::Target>{
                        {parser_.engine.get(), parser_broadcast_},
                        {detector_.engine.get(), detector_broadcast_}});
  model_manager_ =
      std::make_unique<ModelManager>(model_store_, *model_controller_);
  parser_tally_.resize(options_.parser_partitions);

  for (const auto& s : in.sources) {
    agents_.emplace_back(broker_, AgentOptions{s, "ingest"});
  }
}

BuildResult TracedPipeline::train(const std::vector<std::string>& lines) {
  const Clock::time_point start = Clock::now();
  BuildResult result = ModelBuilder(options_.build).build(lines);
  build_s_ += seconds_between(start, Clock::now());
  deploy(result.model);
  drain();
  return result;
}

void TracedPipeline::pump_all(size_t& moved) {
  for (;;) {
    const Clock::time_point start = Clock::now();
    const size_t n = log_manager_.pump();
    pump_s_ += seconds_between(start, Clock::now());
    ++pumps_;
    if (n == 0) return;
    moved += n;
  }
}

void TracedPipeline::sink_drain() {
  const Clock::time_point start = Clock::now();
  for (auto batch = sink_.poll(4096); !batch.empty(); batch = sink_.poll(4096)) {
    for (const auto& m : batch) {
      auto a = anomaly_from_message(m);
      if (a.ok()) anomaly_store_.add(a.value());
    }
  }
  sink_s_ += seconds_between(start, Clock::now());
}

void TracedPipeline::drain() {
  for (int round = 0; round < 32; ++round) {
    size_t moved = 0;
    pump_all(moved);
    parser_.drain();
    sample_parser_stats();
    detector_.drain();
    const bool idle =
        parser_.job->input_lag() == 0 && detector_.job->input_lag() == 0;
    sink_drain();
    if (moved == 0 && idle && log_manager_.input_lag() == 0 &&
        sink_.caught_up() && round > 0) {
      break;
    }
  }
}

void TracedPipeline::heartbeat_advance(int64_t ms) {
  const Clock::time_point start = Clock::now();
  heartbeat_.tick_advance(ms);
  heartbeat_s_ += seconds_between(start, Clock::now());
}

void TracedPipeline::deploy(const CompositeModel& model) {
  const Clock::time_point start = Clock::now();
  model_manager_->deploy(options_.model_name, model);
  const double s = seconds_between(start, Clock::now());
  deploy_s_ += s;
  pass_deploy_s_ += s;
}

size_t TracedPipeline::open_events() {
  size_t total = 0;
  for (const DetectorTask* t : detector_tasks_) total += t->open_events();
  return total;
}

void TracedPipeline::sample_parser_stats() {
  for (size_t p = 0; p < parser_tasks_.size(); ++p) {
    const ParserStats* stats = parser_tasks_[p]->parser_stats();
    if (stats == nullptr) continue;
    ParserTally& tally = parser_tally_[p];
    if (stats != tally.current) {
      tally.done += tally.last;
      tally.current = stats;
    }
    tally.last = {stats->logs, stats->unparsed, stats->index_hits,
                  stats->match_attempts, stats->set_fallbacks};
  }
}

ParserCounts TracedPipeline::parser_counts() const {
  ParserCounts total;
  for (const auto& tally : parser_tally_) {
    total += tally.done;
    total += tally.last;
  }
  return total;
}

void TracedPipeline::begin_pass() {
  ingest_s_ = pump_s_ = sink_s_ = heartbeat_s_ = pass_deploy_s_ = 0;
  pumps_ = 0;
  for (Stage* s : {&parser_, &detector_}) {
    s->job_s = s->critical_s = s->parallel_s = 0;
    s->batches = s->job->batches();
    s->records = s->job->records_in();
  }
}

double TracedPipeline::layer_sum_s() const {
  return ingest_s_ + pump_s_ + parser_.job_s + detector_.job_s + sink_s_ +
         heartbeat_s_ + pass_deploy_s_;
}

std::vector<std::pair<std::string, double>> TracedPipeline::layer_metrics(
    const PassResult& pass) {
  std::vector<std::pair<std::string, double>> m;
  auto add = [&m](std::string name, double value) {
    m.emplace_back(std::move(name), value);
  };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  add("broker.ingest_produce_s", ingest_s_);
  add("log_manager.pump_s", pump_s_);
  add("log_manager.pumps", count(pumps_));
  add("log_manager.archived", count(log_manager_.log_store().size()));
  uint64_t retained = 0;
  for (const auto& topic : broker_.topics()) {
    for (size_t p = 0; p < broker_.partition_count(topic); ++p) {
      retained += broker_.end_offset(topic, p);
    }
  }
  add("broker.retained_msgs", count(retained));
  add("broker.dead_letters",
      count(broker_.end_offset(options_.dead_letter_topic, 0)));
  for (const auto& [name, s] :
       {std::pair<const char*, const Stage*>{"parser", &parser_},
        {"detector", &detector_}}) {
    const std::string prefix = std::string("streaming.") + name;
    const double batches = count(s->job->batches() - s->batches);
    add(prefix + ".job_s", s->job_s);
    add(prefix + ".batches", batches);
    add(prefix + ".records_per_batch",
        ratio(count(s->job->records_in() - s->records), batches));
    add(prefix + ".overhead_s", s->job_s - s->critical_s);
    add(std::string(name) + ".task_s", s->critical_s);
    add(std::string(name) + ".parallel_s", s->parallel_s);
  }

  const ParserCounts pc = parser_counts();
  add("parser.index_hit_ratio", ratio(count(pc.index_hits), count(pc.logs)));
  add("parser.match_attempts_per_log",
      ratio(count(pc.match_attempts), count(pc.logs)));
  add("parser.set_fallbacks", count(pc.set_fallbacks));
  add("parser.unparsed", count(pc.unparsed));

  DetectorStats dc;
  for (const DetectorTask* t : detector_tasks_) {
    if (const DetectorStats* st = t->detector_stats()) {
      dc.logs_tracked += st->logs_tracked;
      dc.events_closed += st->events_closed;
      dc.events_expired += st->events_expired;
    }
  }
  add("detector.logs_tracked", count(dc.logs_tracked));
  add("detector.events_closed", count(dc.events_closed));
  add("detector.events_expired", count(dc.events_expired));
  add("detector.open_events_end", count(pass.open_events_end));

  add("storage.sink_s", sink_s_);
  add("storage.anomalies", count(anomaly_store_.count()));
  add("model.build_s", build_s_);
  add("model.deploy_s", deploy_s_);
  add("heartbeat.tick_s", heartbeat_s_);
  const double sum = layer_sum_s();
  add("pipeline.wall_s", pass.busy_s);
  add("pipeline.idle_s", pass.busy_s - sum);
  add("pipeline.coverage", ratio(sum, pass.busy_s));
  return m;
}

}  // namespace perfbench
