#include "service/heartbeat.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "service/wire.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

Message parsed(const char* source, int64_t ts) {
  Message m;
  m.key = source;
  m.value = "{}";
  m.timestamp_ms = ts;
  m.tag = MessageTag::kData;
  m.source = source;
  return m;
}

TEST(Heartbeat, EmitsOnePerActiveSource) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  broker.produce("parsed", parsed("A", 1000));
  broker.produce("parsed", parsed("B", 2000));
  EXPECT_EQ(hb.tick(), 2u);
  EXPECT_EQ(hb.active_sources(), 2u);
  // The heartbeats are now in the topic, tagged.
  auto all = broker.fetch("parsed", 2, 10);
  ASSERT_EQ(all.size(), 2u);
  for (const auto& m : all) EXPECT_EQ(m.tag, MessageTag::kHeartbeat);
}

TEST(Heartbeat, CarriesObservedLogTimeWhileActive) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  broker.produce("parsed", parsed("A", 5000));
  hb.tick();
  auto msgs = broker.fetch("parsed", 1, 10);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].timestamp_ms, 5000);
  EXPECT_EQ(msgs[0].source, "A");
}

TEST(Heartbeat, ExtrapolatesWhenSourceGoesQuiet) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  // Establish a rate: 10 logs, 100ms apart, in one tick window.
  for (int i = 0; i < 10; ++i) {
    broker.produce("parsed", parsed("A", 1000 + i * 100));
  }
  hb.tick();  // observes; predicted = 1900
  uint64_t offset = broker.end_offset("parsed");
  // Quiet ticks: predicted time must advance monotonically.
  hb.tick();
  hb.tick();
  auto msgs = broker.fetch("parsed", offset, 10);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_GT(msgs[0].timestamp_ms, 1900);
  EXPECT_GT(msgs[1].timestamp_ms, msgs[0].timestamp_ms);
}

TEST(Heartbeat, MinAdvanceBoundsQuietExtrapolation) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 60'000});
  broker.produce("parsed", parsed("A", 1000));
  hb.tick();
  uint64_t offset = broker.end_offset("parsed");
  hb.tick();  // quiet: advance >= 60s
  auto msgs = broker.fetch("parsed", offset, 10);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_GE(msgs[0].timestamp_ms, 61'000);
}

TEST(Heartbeat, TickAdvanceForcesLogTimeForward) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  broker.produce("parsed", parsed("A", 10'000));
  EXPECT_EQ(hb.tick_advance(500'000), 1u);
  auto msgs = broker.fetch("parsed", 1, 10);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].timestamp_ms, 510'000);
}

TEST(Heartbeat, IgnoresNonDataMessages) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  Message anomaly;
  anomaly.tag = MessageTag::kAnomaly;
  anomaly.source = "A";
  anomaly.timestamp_ms = 1;
  broker.produce("parsed", anomaly);
  Message own_hb;
  own_hb.tag = MessageTag::kHeartbeat;
  own_hb.source = "B";
  own_hb.timestamp_ms = 2;
  broker.produce("parsed", own_hb);
  EXPECT_EQ(hb.tick(), 0u);  // no *data* sources observed
  EXPECT_EQ(hb.active_sources(), 0u);
}

// Observing in every drain round, as LogLensService::drain() does, emits
// exactly the heartbeats that observing only at ticks does: the same count
// and the same per-source timestamps. Two controllers watch one D1 stream
// (spread over three sources) and emit to their own topics; only one of them
// observes after every segment, and both tick on the same schedule.
TEST(Heartbeat, PerRoundObservationEqualsTickOnly) {
  const Dataset d1 = make_d1(0.1);
  auto pre = Preprocessor::create();
  ASSERT_TRUE(pre.ok());
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController per_round(broker, {"parsed", "hb_per_round", 1000});
  HeartbeatController tick_only(broker, {"parsed", "hb_tick_only", 1000});
  const char* sources[] = {"A", "B", "C"};
  for (size_t i = 0; i < d1.testing.size(); ++i) {
    const int64_t ts = pre->process(d1.testing[i]).timestamp_ms;
    ASSERT_GE(ts, 0);
    broker.produce("parsed", parsed(sources[i % 3], ts));
    if (i % 50 == 49) per_round.observe();
    if (i % 170 == 169) {
      EXPECT_EQ(per_round.tick(), tick_only.tick());
    }
  }
  for (int quiet = 0; quiet < 3; ++quiet) {
    EXPECT_EQ(per_round.tick(), tick_only.tick());
  }
  auto emitted = [&broker](const std::string& topic) {
    std::vector<std::pair<std::string, int64_t>> out;
    for (const Message& m :
         broker.fetch(topic, 0, broker.end_offset(topic))) {
      EXPECT_EQ(m.tag, MessageTag::kHeartbeat);
      out.emplace_back(m.source, m.timestamp_ms);
    }
    return out;
  };
  const auto expected = emitted("hb_tick_only");
  EXPECT_GT(expected.size(), 3u * 3u);
  EXPECT_EQ(emitted("hb_per_round"), expected);
}

TEST(Heartbeat, NoSourcesNoHeartbeats) {
  Broker broker;
  broker.create_topic("parsed");
  HeartbeatController hb(broker, {"parsed", "parsed", 1000});
  EXPECT_EQ(hb.tick(), 0u);
  EXPECT_EQ(hb.tick_advance(1000), 0u);
}

}  // namespace
}  // namespace loglens
