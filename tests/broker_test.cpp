#include "broker/broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/hash.h"

namespace loglens {
namespace {

Message msg(const char* key, const char* value, int64_t ts = -1,
            MessageTag tag = MessageTag::kData) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp_ms = ts;
  m.tag = tag;
  return m;
}

// A key the broker's hash routing sends to `partition` of `partitions`.
std::string key_on(size_t partition, size_t partitions) {
  for (int i = 0;; ++i) {
    std::string key = "k" + std::to_string(i);
    if (fnv1a(key) % partitions == partition) return key;
  }
}

TEST(Broker, TopicCreation) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 3).ok());
  EXPECT_EQ(broker.partition_count("t"), 3u);
  EXPECT_TRUE(broker.create_topic("t", 3).ok());   // idempotent
  EXPECT_FALSE(broker.create_topic("t", 4).ok());  // mismatch
  EXPECT_FALSE(broker.create_topic("z", 0).ok());
  EXPECT_EQ(broker.partition_count("missing"), 0u);
}

TEST(Broker, AutoCreatesOnProduce) {
  Broker broker;
  ASSERT_TRUE(broker.produce("auto", msg("k", "v")).ok());
  EXPECT_EQ(broker.partition_count("auto"), 1u);
  EXPECT_EQ(broker.end_offset("auto", 0), 1u);
}

TEST(Broker, PartitionOrderPreserved) {
  Broker broker;
  broker.create_topic("t", 1);
  for (int i = 0; i < 10; ++i) {
    broker.produce("t", msg("k", std::to_string(i).c_str()));
  }
  auto fetched = broker.fetch("t", 0, 0, 100);
  ASSERT_EQ(fetched.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fetched[i].value, std::to_string(i));
  }
}

TEST(Broker, KeyHashingIsStable) {
  Broker broker;
  broker.create_topic("t", 4);
  for (int i = 0; i < 20; ++i) broker.produce("t", msg("same-key", "v"));
  // All messages with one key land in one partition.
  size_t nonempty = 0;
  for (size_t p = 0; p < 4; ++p) {
    if (broker.end_offset("t", p) > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1u);
}

TEST(Broker, FetchOffsetsAndLimits) {
  Broker broker;
  broker.create_topic("t", 1);
  for (int i = 0; i < 5; ++i) {
    broker.produce("t", msg("k", std::to_string(i).c_str()));
  }
  EXPECT_EQ(broker.fetch("t", 0, 3, 100).size(), 2u);
  EXPECT_EQ(broker.fetch("t", 0, 0, 2).size(), 2u);
  EXPECT_TRUE(broker.fetch("t", 0, 5, 100).empty());
  EXPECT_TRUE(broker.fetch("t", 9, 0, 100).empty());   // bad partition
  EXPECT_TRUE(broker.fetch("no", 0, 0, 100).empty());  // bad topic
}

TEST(Broker, BlockingFetchTimesOut) {
  Broker broker;
  broker.create_topic("t", 1);
  auto start = std::chrono::steady_clock::now();
  auto out = broker.fetch_blocking("t", 0, 0, 10, 50);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(out.empty());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            40);
}

TEST(Broker, BlockingFetchWakesOnProduce) {
  Broker broker;
  broker.create_topic("t", 1);
  std::thread producer([&broker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    broker.produce("t", msg("k", "wake"));
  });
  auto out = broker.fetch_blocking("t", 0, 0, 10, 2000);
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "wake");
}

TEST(Consumer, PollAdvancesOffsets) {
  Broker broker;
  broker.create_topic("t", 2);
  for (int i = 0; i < 6; ++i) {
    broker.produce("t", msg(("k" + std::to_string(i)).c_str(), "v"));
  }
  Consumer consumer(broker, "t");
  size_t total = 0;
  while (true) {
    auto batch = consumer.poll(2);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(consumer.consumed(), 6u);
  EXPECT_TRUE(consumer.caught_up());
  broker.produce("t", msg("k", "late"));
  EXPECT_FALSE(consumer.caught_up());
  EXPECT_EQ(consumer.poll(10).size(), 1u);
}

TEST(Consumer, IndependentConsumersSeeAllMessages) {
  Broker broker;
  broker.create_topic("t", 1);
  broker.produce("t", msg("k", "v1"));
  Consumer a(broker, "t");
  Consumer b(broker, "t");
  EXPECT_EQ(a.poll(10).size(), 1u);
  EXPECT_EQ(b.poll(10).size(), 1u);  // offsets are per consumer
}

TEST(Consumer, CreatedBeforeTopicGrowsWithIt) {
  Broker broker;
  Consumer consumer(broker, "later");
  EXPECT_TRUE(consumer.poll(10).empty());
  broker.produce("later", msg("k", "v"));
  EXPECT_EQ(consumer.poll(10).size(), 1u);
}

TEST(Broker, ConcurrentProducersAreSerialized) {
  Broker broker;
  broker.create_topic("t", 1);
  constexpr int kThreads = 4;
  constexpr int kEach = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&broker, t] {
      for (int i = 0; i < kEach; ++i) {
        broker.produce("t", msg("k", (std::to_string(t) + ":" +
                                      std::to_string(i)).c_str()));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(broker.end_offset("t", 0), kThreads * kEach);
  // Per-producer order is preserved within the partition.
  auto all = broker.fetch("t", 0, 0, kThreads * kEach);
  std::vector<int> last(kThreads, -1);
  for (const auto& m : all) {
    int tid = m.value[0] - '0';
    int seq = std::stoi(m.value.substr(2));
    EXPECT_GT(seq, last[tid]);
    last[tid] = seq;
  }
}

TEST(Broker, StampsSequenceNumbersOnFirstProduce) {
  Broker broker;
  broker.create_topic("t", 2);
  const std::string k0 = key_on(0, 2);
  const std::string k1 = key_on(1, 2);
  broker.produce("t", msg(k0.c_str(), "a"));
  broker.produce("t", msg(k0.c_str(), "b"));
  broker.produce("t", msg(k1.c_str(), "c"));
  auto p0 = broker.fetch("t", 0, 0, 10);
  auto p1 = broker.fetch("t", 1, 0, 10);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0].seq, 0);
  EXPECT_EQ(p0[1].seq, 1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].seq, 0);
  // An already-stamped seq (a derived child identity) is preserved.
  Message stamped = msg(k1.c_str(), "d");
  stamped.seq = 1234;
  broker.produce("t", std::move(stamped));
  EXPECT_EQ(broker.fetch("t", 1, 1, 1).at(0).seq, 1234);
}

TEST(Consumer, RedeliveryAfterCrashReplaysFromCommittedOffsets) {
  // Offset semantics under a consumer crash: a replacement consumer that
  // seeks to the last *committed* offsets re-reads exactly the uncommitted
  // suffix — every message at or past the commit point is redelivered, and
  // nothing before it.
  Broker broker;
  broker.create_topic("t", 2);
  for (int i = 0; i < 10; ++i) {
    const std::string key = key_on(i % 2, 2);
    broker.produce("t", msg(key.c_str(), std::to_string(i).c_str()));
  }

  Consumer consumer(broker, "t");
  // Consume part of the stream, then "commit" by snapshotting offsets.
  auto first = consumer.poll(6);
  ASSERT_EQ(first.size(), 6u);
  std::vector<uint64_t> committed = consumer.offsets();

  // More consumption happens after the commit and is then lost in a crash.
  auto uncommitted = consumer.poll(2);
  ASSERT_EQ(uncommitted.size(), 2u);

  // The replacement consumer resumes from the committed snapshot.
  Consumer replacement(broker, "t");
  replacement.seek(committed);
  EXPECT_EQ(replacement.offsets(), committed);
  auto replayed = replacement.poll(100);

  // Exactly the post-commit suffix comes back: the 2 uncommitted messages
  // are redelivered (at-least-once), plus the never-polled tail.
  std::multiset<std::string> expect_values;
  for (const auto& m : uncommitted) expect_values.insert(m.value);
  expect_values.insert("7");
  expect_values.insert("9");
  std::multiset<std::string> got_values;
  for (const auto& m : replayed) got_values.insert(m.value);
  EXPECT_EQ(got_values, expect_values);

  // Redelivered copies carry the same broker-stamped seq as the originals —
  // the identity downstream dedup keys on.
  std::multiset<int64_t> first_seqs, again_seqs;
  for (const auto& m : uncommitted) first_seqs.insert(m.seq);
  Consumer third(broker, "t");
  third.seek(committed);
  size_t matched = 0;
  for (const auto& m : third.poll(100)) {
    if (first_seqs.count(m.seq) != 0) ++matched;
  }
  EXPECT_EQ(matched, uncommitted.size());

  // After full consumption the replacement is caught up and a fresh poll
  // from the committed point is empty only once everything was read.
  EXPECT_TRUE(replacement.caught_up());
  EXPECT_TRUE(replacement.poll(100).empty());
}

TEST(Consumer, SeekGrowsOffsetVectorWhenNeeded) {
  Broker broker;
  broker.create_topic("t", 3);
  Consumer consumer(broker, "t");
  consumer.seek({1, 2, 3, 4});  // more entries than partitions: kept
  ASSERT_GE(consumer.offsets().size(), 4u);
  EXPECT_EQ(consumer.offsets()[3], 4u);
}

// Regression: Consumer's offset table used to be unsynchronized, so a
// monitor thread calling lag()/offsets()/caught_up() raced the driver
// thread's poll() — including a vector resize (partition growth) under the
// reader's feet. The consumer now guards the table; this test drives both
// sides hard enough for TSan (CI leg) to flag any regression.
TEST(Consumer, MonitoringIsSafeWhileDriverPolls) {
  Broker broker;
  // Created before the topic exists: the first polls run with a 1-slot
  // offset table, and the table resizes to 4 mid-run once the topic appears
  // — the exact window the old race lived in.
  Consumer consumer(broker, "t");

  std::atomic<bool> stop{false};
  uint64_t drained = 0;
  std::thread driver([&] {
    while (!stop.load()) {
      drained += consumer.poll(16).size();
    }
    drained += consumer.poll(SIZE_MAX).size();
  });
  std::thread monitor([&] {
    while (!stop.load()) {
      (void)consumer.lag();
      (void)consumer.offsets();
      (void)consumer.caught_up();
      (void)consumer.consumed();
    }
  });

  ASSERT_TRUE(broker.create_topic("t", 4).ok());
  for (int i = 0; i < 2000; ++i) {
    const std::string key = key_on(i % 4, 4);
    ASSERT_TRUE(broker.produce("t", msg(key.c_str(), "v")).ok());
  }
  stop.store(true);
  driver.join();
  monitor.join();
  EXPECT_EQ(drained, 2000u);
  EXPECT_EQ(consumer.consumed(), 2000u);
  EXPECT_TRUE(consumer.caught_up());
  EXPECT_EQ(consumer.lag(), 0u);
}

}  // namespace
}  // namespace loglens
