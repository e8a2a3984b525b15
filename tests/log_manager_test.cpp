#include "service/log_manager.h"

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "service/agent.h"
#include "trace/report.h"
#include "trace/trace.h"

namespace loglens {
namespace {

TEST(LogManager, ForwardsAndArchives) {
  Broker broker;
  LogManager manager(broker, {"ingest", "logs", 100, "", {}});
  Agent agent(broker, {"web", "ingest"});
  agent.send_line("line one");
  agent.send_line("line two");
  EXPECT_EQ(manager.pump(), 2u);
  EXPECT_EQ(broker.end_offset("logs"), 2u);
  EXPECT_EQ(manager.log_store().size(), 2u);
  auto archived = manager.log_store().fetch("web");
  ASSERT_EQ(archived.size(), 2u);
  EXPECT_EQ(archived[0], "line one");
  EXPECT_TRUE(manager.sources().contains("web"));
  EXPECT_EQ(manager.forwarded(), 2u);
}

// With tracing on, a pump that moves logs records its pipeline span and the
// poll, archive and forward steps as children, and build_report files them
// under the `log_manager` stage, fully attributed. With tracing off it
// records nothing.
TEST(LogManager, PumpRecordsPipelineSpansWhenTraced) {
  const bool was_enabled = trace::enabled();
  MetricsRegistry registry;
  Broker broker;
  LogManagerOptions opts;
  opts.store.metrics = &registry;
  LogManager manager(broker, opts);
  Agent agent(broker, {"web", "ingest"});

  trace::set_enabled(false);
  agent.send_line("untraced");
  EXPECT_EQ(manager.pump(), 1u);
  EXPECT_TRUE(registry.take_trace_spans().empty());

  trace::set_enabled(true);
  agent.send_line("traced one");
  agent.send_line("traced two");
  EXPECT_EQ(manager.pump(), 2u);
  EXPECT_EQ(manager.pump(), 0u);  // an empty pump records no span
  trace::set_enabled(was_enabled);

  const std::vector<trace::Span> spans = registry.take_trace_spans();
  ASSERT_EQ(spans.size(), 4u);
  const trace::Span* pipeline = nullptr;
  for (const auto& s : spans) {
    if (s.name == "log_manager.pipeline") pipeline = &s;
  }
  ASSERT_NE(pipeline, nullptr);
  for (const auto& s : spans) {
    if (&s == pipeline) continue;
    EXPECT_TRUE(s.name == "log_manager.poll" ||
                s.name == "log_manager.archive" ||
                s.name == "log_manager.forward")
        << s.name;
    EXPECT_EQ(s.parent_id, pipeline->span_id);
    EXPECT_EQ(s.trace_id, pipeline->trace_id);
    EXPECT_GE(s.start_us, pipeline->start_us);
    EXPECT_LE(s.start_us + s.duration_us,
              pipeline->start_us + pipeline->duration_us);
  }
  const trace::Report report = trace::build_report(spans, 0);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].stage, "log_manager");
  EXPECT_EQ(report.stages[0].batches, 1u);
  EXPECT_EQ(report.stages[0].attributed_us, report.stages[0].total_us);
}

TEST(LogManager, RateControlCapsPerPump) {
  Broker broker;
  LogManagerOptions opts;
  opts.max_forward_per_pump = 5;
  LogManager manager(broker, opts);
  Agent agent(broker, {"s", "ingest"});
  for (int i = 0; i < 12; ++i) agent.send_line("l" + std::to_string(i));
  // Pumps respect the rate limit; the broker buffers the excess.
  EXPECT_EQ(manager.pump(), 5u);
  EXPECT_EQ(broker.end_offset("logs"), 5u);
  EXPECT_EQ(manager.pump(), 5u);
  EXPECT_EQ(manager.pump(), 2u);
  EXPECT_EQ(manager.pump(), 0u);
  EXPECT_EQ(manager.forwarded(), 12u);
}

TEST(LogManager, DrainLoopsToEmpty) {
  Broker broker;
  LogManagerOptions opts;
  opts.max_forward_per_pump = 3;
  LogManager manager(broker, opts);
  Agent agent(broker, {"s", "ingest"});
  for (int i = 0; i < 10; ++i) agent.send_line("x");
  EXPECT_EQ(manager.drain(), 10u);
  EXPECT_EQ(broker.end_offset("logs"), 10u);
}

// A log whose forward exhausts the broker's produce retries is archived and
// dead-lettered, never silently dropped or counted as forwarded.
TEST(LogManager, UndeliverableLogsAreDeadLettered) {
  for (const std::string dlq : {"dead", ""}) {
    FaultInjector faults(7);
    MetricsRegistry registry;
    Broker broker(nullptr, &faults);
    LogManagerOptions opts;
    opts.dead_letter_topic = dlq;
    opts.store.metrics = &registry;
    LogManager manager(broker, opts);
    Agent agent(broker, {"s", "ingest"});
    for (int i = 0; i < 3; ++i) agent.send_line("l" + std::to_string(i));
    FaultSpec spec;
    spec.max_triggers = 5;  // spends one message's whole retry budget
    faults.arm(kFaultSiteProduce, spec);
    EXPECT_EQ(manager.drain(), 3u);
    EXPECT_EQ(manager.log_store().size(), 3u);
    EXPECT_EQ(broker.end_offset("logs"), 2u);
    EXPECT_EQ(manager.forwarded(), 2u);
    EXPECT_EQ(registry
                  .counter("loglens_log_manager_dead_letter_records_total",
                           {{"topic", "ingest"}})
                  .value(),
              1u);
    if (!dlq.empty()) {
      EXPECT_EQ(broker.end_offset(dlq), 1u);
    }
  }
}

TEST(LogManager, TracksMultipleSources) {
  Broker broker;
  LogManager manager(broker, {});
  Agent a(broker, {"a", "ingest"});
  Agent b(broker, {"b", "ingest"});
  a.send_line("from a");
  b.send_line("from b");
  a.send_line("more a");
  manager.drain();
  EXPECT_EQ(manager.sources().size(), 2u);
  EXPECT_EQ(manager.log_store().fetch("a").size(), 2u);
  EXPECT_EQ(manager.log_store().fetch("b").size(), 1u);
  EXPECT_EQ(a.lines_sent(), 2u);
  EXPECT_EQ(a.source(), "a");
}

}  // namespace
}  // namespace loglens
