#include "service/log_manager.h"

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "service/agent.h"

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
