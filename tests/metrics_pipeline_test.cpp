// End-to-end observability: running the pipeline advances the engine,
// parser, detector, broker, and job metrics, the JobRunner emits periodic
// health reports, and the dashboard renders a live Prometheus page.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "service/dashboard.h"
#include "service/service.h"

namespace loglens {
namespace {

const std::vector<std::string> kTraining = {
    "2016/02/23 09:00:31 10.0.0.1 login user1",
    "2016/02/23 09:00:32 10.0.0.2 login user2",
    "2016/02/23 09:00:33 10.0.0.3 login user3",
    "2016/02/23 09:01:02 Connect DB 127.0.0.1 user abc123",
    "2016/02/23 09:01:09 Connect DB 10.1.1.5 user svc_batch",
    "2016/02/23 09:01:44 Connect DB 10.1.1.9 user reporter",
};

const std::vector<std::string> kProduction = {
    "2016/02/23 10:00:01 10.0.0.9 login bob",
    "2016/02/23 10:00:07 Connect DB 10.1.1.2 user etl",
    "kernel panic: something exploded",
};

// Sums a per-partition counter family over a service's partitions.
uint64_t sum_partitions(MetricsRegistry& registry, const std::string& name,
                        size_t partitions) {
  uint64_t total = 0;
  for (size_t p = 0; p < partitions; ++p) {
    total +=
        registry.counter(name, {{"partition", std::to_string(p)}}).value();
  }
  return total;
}

TEST(MetricsPipelineTest, CountersAdvanceEndToEnd) {
  MetricsRegistry registry;  // isolated from the global one
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.metrics_report_every = 1;
  opts.build.discovery.max_dist = 0.45;
  LogLensService service(opts);
  service.train(kTraining);
  Agent agent = service.make_agent("test");
  agent.replay(kProduction);
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();

  // Engine: both stages ran batches and routed records.
  EXPECT_GT(
      registry.counter("loglens_engine_batches_total", {{"stage", "parser"}})
          .value(),
      0u);
  EXPECT_GT(
      registry.counter("loglens_engine_batches_total", {{"stage", "detector"}})
          .value(),
      0u);
  EXPECT_GE(
      registry.counter("loglens_engine_records_total", {{"stage", "parser"}})
          .value(),
      kProduction.size());
  EXPECT_GT(registry
                .histogram("loglens_engine_batch_duration_us",
                           {{"stage", "parser"}})
                .snapshot()
                .count,
            0u);

  // Parser: every production line was parsed, one is unparseable.
  EXPECT_GE(sum_partitions(registry, "loglens_parser_logs_total",
                           opts.parser_partitions),
            kProduction.size());
  EXPECT_GE(sum_partitions(registry, "loglens_parser_unparsed_total",
                           opts.parser_partitions),
            1u);
  EXPECT_GT(sum_partitions(registry, "loglens_parser_index_misses_total",
                           opts.parser_partitions),
            0u);
  uint64_t parse_samples = 0;
  for (size_t p = 0; p < opts.parser_partitions; ++p) {
    parse_samples += registry
                         .histogram("loglens_parser_parse_latency_us",
                                    {{"partition", std::to_string(p)}})
                         .snapshot()
                         .count;
  }
  EXPECT_GE(parse_samples, kProduction.size());

  // Detector: parsed logs arrived and heartbeat sweeps ran.
  EXPECT_GT(sum_partitions(registry, "loglens_detector_logs_total",
                           opts.detector_partitions),
            0u);
  EXPECT_GT(sum_partitions(registry, "loglens_detector_heartbeats_total",
                           opts.detector_partitions),
            0u);

  // Broker: ingest saw the agent's lines; heartbeats were emitted.
  EXPECT_GE(registry
                .counter("loglens_broker_messages_produced_total",
                         {{"topic", "ingest"}})
                .value(),
            kProduction.size());
  EXPECT_GT(registry.counter("loglens_heartbeat_emitted_total").value(), 0u);

  // Jobs: batches were accounted and health reports were published.
  EXPECT_GT(registry.counter("loglens_job_batches_total", {{"job", "parser"}})
                .value(),
            0u);
  Consumer reports(service.broker(), "metrics");
  auto batch = reports.poll(128);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(batch.front().tag, MessageTag::kMetrics);
  auto parsed = Json::parse(batch.front().value);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->get_string("job").empty());
  ASSERT_NE(parsed->find("batches"), nullptr);
  EXPECT_GT(parsed->find("batches")->as_int(), 0);

  // Dashboard: the Prometheus page shows the live counters.
  Dashboard dashboard(service.anomalies(), service.model_store(),
                      service.log_store(), &registry);
  std::string page = dashboard.render_metrics();
  EXPECT_NE(page.find("loglens_engine_batches_total{stage=\"parser\"}"),
            std::string::npos);
  EXPECT_NE(page.find("loglens_parser_logs_total"), std::string::npos);
  EXPECT_NE(page.find("loglens_detector_logs_total"), std::string::npos);
  Json snapshot = dashboard.metrics_snapshot();
  ASSERT_TRUE(snapshot.find("histograms") != nullptr);
  EXPECT_FALSE(snapshot.find("histograms")->as_array().empty());

  // Spans were traced for both stages.
  bool parser_span = false;
  for (const auto& span : registry.take_trace_spans()) {
    if (span.name == "parser.batch") parser_span = true;
  }
  EXPECT_TRUE(parser_span);
}

TEST(MetricsPipelineTest, ModelUpdateCountsControlOps) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.build.discovery.max_dist = 0.45;
  LogLensService service(opts);
  service.train(kTraining);
  // Re-deploying the model rides the control channel into both engines; the
  // pending rebroadcast is applied at the start of the next non-empty batch.
  service.train(kTraining);
  Agent agent = service.make_agent("test");
  agent.replay({kProduction.front()});
  service.drain();
  EXPECT_GT(
      registry
          .counter("loglens_engine_control_ops_total", {{"stage", "parser"}})
          .value(),
      0u);
  // Each train() records one sample per build phase.
  for (const char* phase : {"tokenize", "discover", "parse", "learn"}) {
    const Histogram* h =
        registry.find_histogram("loglens_model_build_us", {{"phase", phase}});
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_EQ(h->count(), 2u) << phase;
  }
}

}  // namespace
}  // namespace loglens
