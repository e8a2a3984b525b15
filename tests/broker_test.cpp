#include "broker/broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

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

TEST(Broker, TopicCreation) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t").ok());
  EXPECT_EQ(broker.partition_count("t"), 1u);
  EXPECT_TRUE(broker.create_topic("t").ok());  // idempotent
  // A topic is one log: no other partition count is accepted.
  EXPECT_FALSE(broker.create_topic("z", 0).ok());
  EXPECT_FALSE(broker.create_topic("z", 2).ok());
  EXPECT_EQ(broker.partition_count("z"), 0u);
  EXPECT_EQ(broker.partition_count("missing"), 0u);
}

TEST(Broker, AutoCreatesOnProduce) {
  Broker broker;
  ASSERT_TRUE(broker.produce("auto", msg("k", "v")).ok());
  EXPECT_EQ(broker.partition_count("auto"), 1u);
  EXPECT_EQ(broker.end_offset("auto"), 1u);
}

TEST(Broker, AppendOrderPreserved) {
  Broker broker;
  broker.create_topic("t");
  for (int i = 0; i < 10; ++i) {
    broker.produce("t", msg(i % 2 == 0 ? "a" : "b", std::to_string(i).c_str()));
  }
  auto fetched = broker.fetch("t", 0, 100);
  ASSERT_EQ(fetched.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fetched[i].value, std::to_string(i));
  }
}

TEST(Broker, FetchOffsetsAndLimits) {
  Broker broker;
  broker.create_topic("t");
  for (int i = 0; i < 5; ++i) {
    broker.produce("t", msg("k", std::to_string(i).c_str()));
  }
  EXPECT_EQ(broker.fetch("t", 3, 100).size(), 2u);
  EXPECT_EQ(broker.fetch("t", 0, 2).size(), 2u);
  EXPECT_TRUE(broker.fetch("t", 5, 100).empty());
  EXPECT_TRUE(broker.fetch("no", 0, 100).empty());  // bad topic
  EXPECT_EQ(broker.end_offset("t"), 5u);
  EXPECT_EQ(broker.end_offset("t", 1), 0u);  // no partition but 0
}

TEST(Consumer, PollAdvancesOffsets) {
  Broker broker;
  broker.create_topic("t");
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
  broker.create_topic("t");
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
  broker.create_topic("t");
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
  EXPECT_EQ(broker.end_offset("t"), kThreads * kEach);
  // Per-producer order is preserved within the log.
  auto all = broker.fetch("t", 0, kThreads * kEach);
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
  broker.create_topic("t");
  broker.produce("t", msg("a", "a"));
  broker.produce("t", msg("a", "b"));
  broker.produce("t", msg("b", "c"));
  auto all = broker.fetch("t", 0, 10);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 0);
  EXPECT_EQ(all[1].seq, 1);
  EXPECT_EQ(all[2].seq, 2);
  // An already-stamped seq (a derived child identity) is preserved.
  Message stamped = msg("b", "d");
  stamped.seq = 1234;
  broker.produce("t", std::move(stamped));
  EXPECT_EQ(broker.fetch("t", 3, 1).at(0).seq, 1234);
}

TEST(Consumer, RedeliveryAfterCrashReplaysFromCommittedOffsets) {
  // Offset semantics under a consumer crash: a replacement consumer that
  // seeks to the last *committed* offsets re-reads exactly the uncommitted
  // suffix — every message at or past the commit point is redelivered, and
  // nothing before it.
  Broker broker;
  broker.create_topic("t");
  for (int i = 0; i < 10; ++i) {
    broker.produce("t", msg("k", std::to_string(i).c_str()));
  }

  Consumer consumer(broker, "t");
  // Consume part of the stream, then "commit" by snapshotting the offset.
  auto first = consumer.poll(6);
  ASSERT_EQ(first.size(), 6u);
  const uint64_t committed = consumer.offset();
  EXPECT_EQ(committed, 6u);

  // More consumption happens after the commit and is then lost in a crash.
  auto uncommitted = consumer.poll(2);
  ASSERT_EQ(uncommitted.size(), 2u);

  // The replacement consumer resumes from the committed snapshot.
  Consumer replacement(broker, "t");
  ASSERT_TRUE(replacement.seek(committed).ok());
  EXPECT_EQ(replacement.offset(), committed);
  auto replayed = replacement.poll(100);

  // Exactly the post-commit suffix comes back: the 2 uncommitted messages
  // are redelivered (at-least-once), plus the never-polled tail.
  std::multiset<std::string> expect_values;
  for (const auto& m : uncommitted) expect_values.insert(m.value);
  expect_values.insert("8");
  expect_values.insert("9");
  std::multiset<std::string> got_values;
  for (const auto& m : replayed) got_values.insert(m.value);
  EXPECT_EQ(got_values, expect_values);

  // Redelivered copies carry the same broker-stamped seq as the originals —
  // the identity downstream dedup keys on.
  std::multiset<int64_t> first_seqs, again_seqs;
  for (const auto& m : uncommitted) first_seqs.insert(m.seq);
  Consumer third(broker, "t");
  ASSERT_TRUE(third.seek(committed).ok());
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

// Regression: Consumer's offset table used to be unsynchronized, so a
// monitor thread calling lag()/offset()/caught_up() raced the driver
// thread's poll(). The consumer now guards its offset; this test drives both
// sides hard enough for TSan (CI leg) to flag any regression.
TEST(Consumer, MonitoringIsSafeWhileDriverPolls) {
  Broker broker;
  // Created before the topic exists: the first polls and lag reads find no
  // topic, and both sides start resolving it mid-run once it appears.
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
      (void)consumer.offset();
      (void)consumer.caught_up();
      (void)consumer.consumed();
    }
  });

  ASSERT_TRUE(broker.create_topic("t").ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(broker.produce("t", msg("k", "v")).ok());
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
