// The batch-handoff consumer semantics: blocking watermark polls,
// backpressure observability, batched produce — and sharded-partition
// interleaving stress meant for the TSan leg (concurrent produce /
// produce_batch / fetch across partitions share no lock but the
// per-partition ones).
#include "broker/broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {
namespace {

using Clock = std::chrono::steady_clock;

Message msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.tag = MessageTag::kData;
  return m;
}

int64_t ms_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

TEST(PollBlocking, TimesOutEmptyWhenNoData) {
  Broker broker;
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/80);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(ms_since(t0), 70);  // waited for the deadline, not a spin-out
}

TEST(PollBlocking, ReturnsImmediatelyWhenDataIsReady) {
  Broker broker;
  broker.create_topic("t", 1);
  for (int i = 0; i < 5; ++i) broker.produce("t", msg("k", "v"));
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/5000);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_LT(ms_since(t0), 1000);  // did not sit out the timeout
}

TEST(PollBlocking, ProducerWakesParkedConsumer) {
  Broker broker;
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t");
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    broker.produce("t", msg("key", "wake"));
  });
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/10000);
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "wake");
  // Condition-variable wakeup, not deadline expiry: well under the 10s
  // timeout. Generous bound for loaded CI machines.
  EXPECT_LT(ms_since(t0), 5000);
}

TEST(PollBlocking, LowWatermarkKeepsAccumulating) {
  Broker broker;
  broker.create_topic("t", 1);
  broker.produce("t", msg("k", "first"));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<Message> rest;
    for (int i = 0; i < 3; ++i) rest.push_back(msg("k", "rest"));
    broker.produce_batch("t", std::move(rest));
  });
  // min_messages=4: the one message already present must not satisfy the
  // poll on its own; the batch landing later completes the low watermark.
  Consumer consumer(broker, "t");
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/10000,
                                    /*min_messages=*/4);
  producer.join();
  EXPECT_GE(out.size(), 4u);
}

TEST(PollBlocking, TimeoutDeliversPartialBatchBelowWatermark) {
  Broker broker;
  broker.create_topic("t", 1);
  broker.produce("t", msg("k", "only"));
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  // A low watermark of 8 can never be met; the deadline flushes what is
  // there instead of returning empty-handed.
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/80,
                                    /*min_messages=*/8);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_GE(ms_since(t0), 70);
}

TEST(Consumer, QueueDepthGaugeTracksSlowSinkBackpressure) {
  MetricsRegistry registry;
  Broker broker(&registry);
  broker.create_topic("t", 1);
  Consumer consumer(broker, "t", &registry);
  Gauge& depth =
      registry.gauge("loglens_consumer_queue_depth", {{"topic", "t"}});

  // A fast producer against a sink that drains 2 messages per poll: the
  // gauge must expose the growing backlog after every poll — the signal a
  // deployment alerts on instead of discovering unbounded lag post hoc.
  for (int i = 0; i < 10; ++i) broker.produce("t", msg("k", "v"));
  EXPECT_EQ(consumer.poll(2).size(), 2u);
  EXPECT_EQ(depth.value(), 8);

  for (int i = 0; i < 6; ++i) broker.produce("t", msg("k", "v"));
  EXPECT_EQ(consumer.poll(2).size(), 2u);
  EXPECT_EQ(depth.value(), 12);
  EXPECT_EQ(consumer.lag(), 12u);

  // Draining the backlog brings the gauge back to zero.
  while (!consumer.caught_up()) consumer.poll(64);
  EXPECT_EQ(depth.value(), 0);
}

TEST(Consumer, BatchedOffsetCommitCounters) {
  MetricsRegistry registry;
  Broker broker(&registry);
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t", &registry);
  Counter& commits = registry.counter("loglens_consumer_offset_commits_total",
                                      {{"topic", "t"}});
  Counter& records = registry.counter(
      "loglens_consumer_committed_records_total", {{"topic", "t"}});

  std::vector<Message> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(msg("k" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(broker.produce_batch("t", std::move(batch)).ok());

  EXPECT_EQ(consumer.poll(64).size(), 12u);
  // One commit covered the whole poll — batched, not one per message.
  EXPECT_EQ(commits.value(), 1u);
  EXPECT_EQ(records.value(), 12u);

  // An empty poll commits nothing.
  EXPECT_TRUE(consumer.poll(64).empty());
  EXPECT_EQ(commits.value(), 1u);
  EXPECT_EQ(records.value(), 12u);
}

TEST(ProduceBatch, RoutesByKeyExactlyLikeProduce) {
  Broker a;
  Broker b;
  a.create_topic("t", 4);
  b.create_topic("t", 4);
  std::vector<Message> batch;
  for (int i = 0; i < 40; ++i) {
    auto m = msg("key-" + std::to_string(i % 7), "v" + std::to_string(i));
    a.produce("t", m);
    batch.push_back(std::move(m));
  }
  ASSERT_TRUE(b.produce_batch("t", std::move(batch)).ok());
  for (size_t p = 0; p < 4; ++p) {
    auto one = a.fetch("t", p, 0, 100);
    auto two = b.fetch("t", p, 0, 100);
    ASSERT_EQ(one.size(), two.size()) << "partition " << p;
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].value, two[i].value);
      EXPECT_EQ(one[i].seq, two[i].seq);
    }
  }
}

TEST(ProduceBatch, ExhaustedRetriesLandInFailedNotTheLog) {
  FaultInjector faults(/*seed=*/42);
  Broker broker(nullptr, &faults);
  broker.create_topic("t", 1);
  // Every produce attempt fails: the whole batch must come back in
  // `failed`, none of it in the log, and the Status must not be ok.
  FaultSpec spec;
  spec.action = FaultAction::kThrow;
  spec.probability = 1.0;
  faults.arm(kFaultSiteProduce, spec);
  std::vector<Message> batch{msg("a", "1"), msg("b", "2")};
  std::vector<Message> failed;
  Status st = broker.produce_batch("t", std::move(batch), &failed);
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].value, "1");
  EXPECT_EQ(failed[1].value, "2");
  EXPECT_EQ(broker.end_offset("t", 0), 0u);
}

// Sharded-partition interleaving stress (sized for the TSan leg): single
// producers and batch producers hit all partitions concurrently while
// blocking readers drain them. Verifies no message is lost or duplicated
// and per-producer order within a partition is preserved — the invariants
// the per-partition locks plus the waiter rendezvous must uphold under
// real interleaving.
TEST(BrokerShardStress, ConcurrentProduceFetchAcrossPartitions) {
  constexpr size_t kPartitions = 4;
  constexpr int kProducers = 2;
  constexpr int kBatchProducers = 2;
  constexpr int kPerProducer = 400;

  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", kPartitions).ok());

  std::vector<std::thread> producers;
  for (int pr = 0; pr < kProducers; ++pr) {
    producers.emplace_back([&, pr] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Key-routed round-robin over the partitions; the value encodes
        // (producer, index) so readers can check per-producer order within
        // the partition.
        Message m = msg("pkey-" + std::to_string(i % kPartitions),
                        "p" + std::to_string(pr) + ":" + std::to_string(i));
        EXPECT_TRUE(broker.produce("t", std::move(m)).ok());
      }
    });
  }
  for (int bp = 0; bp < kBatchProducers; ++bp) {
    producers.emplace_back([&, bp] {
      for (int chunk = 0; chunk < kPerProducer / 50; ++chunk) {
        std::vector<Message> batch;
        for (int i = 0; i < 50; ++i) {
          int n = chunk * 50 + i;
          // Key-routed: same key => same partition, batch order preserved.
          batch.push_back(msg("bkey-" + std::to_string(n % kPartitions),
                              "b" + std::to_string(bp) + ":" +
                                  std::to_string(n)));
        }
        EXPECT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
      }
    });
  }

  const size_t total =
      static_cast<size_t>(kProducers + kBatchProducers) * kPerProducer;
  std::atomic<size_t> consumed{0};
  std::vector<std::vector<std::string>> seen(kPartitions);
  std::vector<std::thread> readers;
  for (size_t p = 0; p < kPartitions; ++p) {
    readers.emplace_back([&, p] {
      uint64_t offset = 0;
      while (consumed.load(std::memory_order_relaxed) < total) {
        auto got =
            broker.fetch_blocking("t", p, offset, 64, /*timeout_ms=*/100);
        for (auto& m : got) seen[p].push_back(std::move(m.value));
        offset += got.size();
        consumed.fetch_add(got.size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();

  // Every message arrived exactly once...
  size_t arrived = 0;
  for (const auto& partition : seen) arrived += partition.size();
  EXPECT_EQ(arrived, total);
  // ...and within each partition, each producer's stream is in order.
  for (const auto& partition : seen) {
    std::map<std::string, int> last;  // producer prefix -> last index seen
    for (const auto& value : partition) {
      auto colon = value.find(':');
      ASSERT_NE(colon, std::string::npos);
      std::string who = value.substr(0, colon);
      int index = std::stoi(value.substr(colon + 1));
      auto it = last.find(who);
      if (it != last.end()) {
        EXPECT_GT(index, it->second)
            << "out-of-order delivery for producer " << who;
      }
      last[who] = index;
    }
  }
}

// poll_blocking under concurrent multi-partition production: the consumer
// registers every partition in its offsets vector, so data landing in any
// of them wakes the park. Exercises Consumer + wait_for_data end to end.
TEST(BrokerShardStress, PollBlockingDrainsConcurrentBatchProducer) {
  constexpr size_t kPartitions = 3;
  constexpr int kBatches = 20;
  constexpr int kBatchSize = 25;
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", kPartitions).ok());
  Consumer consumer(broker, "t");

  std::thread producer([&] {
    for (int n = 0; n < kBatches; ++n) {
      std::vector<Message> batch;
      for (int i = 0; i < kBatchSize; ++i) {
        batch.push_back(msg("k" + std::to_string(i), "v"));
      }
      EXPECT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
      if (n % 5 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  size_t got = 0;
  const size_t total = static_cast<size_t>(kBatches) * kBatchSize;
  while (got < total) {
    auto out = consumer.poll_blocking(/*max=*/64, /*timeout_ms=*/5000,
                                      /*min_messages=*/8);
    ASSERT_FALSE(out.empty()) << "timed out with " << got << "/" << total;
    got += out.size();
  }
  producer.join();
  EXPECT_EQ(got, total);
  EXPECT_TRUE(consumer.caught_up());
  EXPECT_EQ(consumer.consumed(), total);
}

}  // namespace
}  // namespace loglens
