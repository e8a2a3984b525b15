// The batch-handoff consumer semantics: blocking polls, backpressure
// observability, batched produce — and interleaving stress meant for the
// TSan leg (concurrent produce / produce_batch / fetch / wait_for_data on
// one topic's log).
#include "broker/broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
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
  broker.create_topic("t");
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/80);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(ms_since(t0), 70);  // waited for the deadline, not a spin-out
}

TEST(PollBlocking, ReturnsImmediatelyWhenDataIsReady) {
  Broker broker;
  broker.create_topic("t");
  for (int i = 0; i < 5; ++i) broker.produce("t", msg("k", "v"));
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/5000);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_LT(ms_since(t0), 1000);  // did not sit out the timeout
}

TEST(PollBlocking, ProducerWakesParkedConsumer) {
  Broker broker;
  broker.create_topic("t");
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

TEST(Consumer, QueueDepthGaugeTracksSlowSinkBackpressure) {
  MetricsRegistry registry;
  Broker broker(&registry);
  broker.create_topic("t");
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
  broker.create_topic("t");
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

TEST(ProduceBatch, AppendsExactlyLikeProduce) {
  Broker a;
  Broker b;
  std::vector<Message> batch;
  for (int i = 0; i < 40; ++i) {
    auto m = msg("key-" + std::to_string(i % 7), "v" + std::to_string(i));
    if (i % 5 == 0) m.seq = 1000 + i;  // a derived identity is kept
    a.produce("t", m);
    batch.push_back(std::move(m));
  }
  ASSERT_TRUE(b.produce_batch("t", std::move(batch)).ok());
  auto one = a.fetch("t", 0, 100);
  auto two = b.fetch("t", 0, 100);
  ASSERT_EQ(one.size(), 40u);
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].value, two[i].value);
    EXPECT_EQ(one[i].seq, two[i].seq);
  }
}

TEST(ProduceBatch, ExhaustedRetriesLandInFailedNotTheLog) {
  FaultInjector faults(/*seed=*/42);
  Broker broker(nullptr, &faults);
  broker.create_topic("t");
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
  EXPECT_EQ(broker.end_offset("t"), 0u);
}

// Interleaving stress (sized for the TSan leg): single producers and batch
// producers append to one topic concurrently while readers, each with its
// own offset, fetch it and park in wait_for_data when they catch up.
// Verifies no message is lost or duplicated and per-producer order is
// preserved — the invariants the log's lock plus the waiter rendezvous must
// uphold under real interleaving.
TEST(BrokerStress, ConcurrentProduceFetch) {
  constexpr size_t kReaders = 2;
  constexpr int kProducers = 2;
  constexpr int kBatchProducers = 2;
  constexpr int kPerProducer = 400;

  Broker broker;
  ASSERT_TRUE(broker.create_topic("t").ok());

  std::vector<std::thread> producers;
  for (int pr = 0; pr < kProducers; ++pr) {
    producers.emplace_back([&, pr] {
      for (int i = 0; i < kPerProducer; ++i) {
        // The value encodes (producer, index) so readers can check
        // per-producer order.
        Message m = msg("pkey-" + std::to_string(i % 4),
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
          // Batch order is preserved in the log.
          batch.push_back(msg("bkey-" + std::to_string(n % 4),
                              "b" + std::to_string(bp) + ":" +
                                  std::to_string(n)));
        }
        EXPECT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
      }
    });
  }

  const size_t total =
      static_cast<size_t>(kProducers + kBatchProducers) * kPerProducer;
  std::vector<std::vector<std::string>> seen(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t offset = 0;
      while (offset < total) {
        auto got = broker.fetch("t", offset, 64);
        if (got.empty()) {
          if (!broker.wait_for_data("t", offset, /*timeout_ms=*/5000)) break;
          continue;
        }
        for (auto& m : got) seen[r].push_back(std::move(m.value));
        offset += got.size();
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();

  for (const auto& log : seen) {
    // Every message arrived exactly once...
    EXPECT_EQ(log.size(), total);
    EXPECT_EQ(std::set<std::string>(log.begin(), log.end()).size(), total);
    // ...and each producer's stream is in order.
    std::map<std::string, int> last;  // producer prefix -> last index seen
    for (const auto& value : log) {
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

// poll_blocking under concurrent batch production: every batch that lands
// past the consumer's offset wakes the park. Exercises Consumer +
// wait_for_data end to end.
TEST(BrokerStress, PollBlockingDrainsConcurrentBatchProducer) {
  constexpr int kBatches = 20;
  constexpr int kBatchSize = 25;
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t").ok());
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
    auto out = consumer.poll_blocking(/*max=*/64, /*timeout_ms=*/5000);
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
