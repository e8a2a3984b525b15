// Broker retention: partition logs are chunked, and every whole chunk below
// the low-water mark that the topic's holds (consumers and pins) allow is
// freed. Offsets stay absolute throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/hash.h"
#include "datagen/datasets.h"
#include "metrics/metrics.h"
#include "service/service.h"

namespace loglens {
namespace {

constexpr uint64_t kChunk = Broker::kChunkMessages;

// Appends `n` messages to `topic` (partitioned by `key`), each carrying its
// append number as its value.
void fill(Broker& broker, const std::string& topic, uint64_t n,
          const std::string& key = "") {
  std::vector<Message> batch(n);
  for (uint64_t i = 0; i < n; ++i) {
    batch[i].key = key;
    batch[i].value = std::to_string(i);
  }
  ASSERT_TRUE(broker.produce_batch(topic, std::move(batch)).ok());
}

// Polls until `n` messages arrived; returns them in delivery order.
std::vector<Message> consume(Consumer& consumer, uint64_t n) {
  std::vector<Message> out;
  while (out.size() < n) {
    auto batch = consumer.poll(static_cast<size_t>(n - out.size()));
    if (batch.empty()) break;
    for (auto& m : batch) out.push_back(std::move(m));
  }
  return out;
}

// Every message of `got` sits at its own offset: seq counts up from `from`.
void expect_contiguous(const std::vector<Message>& got, uint64_t from) {
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].seq, static_cast<int64_t>(from + i)) << "index " << i;
  }
}

TEST(BrokerRetention, FetchCrossesChunkBoundariesIntoPartialLastChunk) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  fill(broker, "t", 2 * kChunk + 100);

  // Starts in chunk 0, spans all of chunk 1, ends inside chunk 2.
  auto across = broker.fetch("t", 0, kChunk - 10, kChunk + 50);
  ASSERT_EQ(across.size(), kChunk + 50);
  expect_contiguous(across, kChunk - 10);

  // A fetch into the partial last chunk returns only what is there.
  auto tail = broker.fetch("t", 0, 2 * kChunk - 5, 1000);
  ASSERT_EQ(tail.size(), 105u);
  expect_contiguous(tail, 2 * kChunk - 5);
  EXPECT_TRUE(broker.fetch("t", 0, 2 * kChunk + 100, 10).empty());

  // Odd-sized polls read the whole log in order.
  Consumer consumer(broker, "t");
  std::vector<Message> all;
  for (auto batch = consumer.poll(777); !batch.empty();
       batch = consumer.poll(777)) {
    for (auto& m : batch) all.push_back(std::move(m));
  }
  ASSERT_EQ(all.size(), 2 * kChunk + 100);
  expect_contiguous(all, 0);
}

TEST(BrokerRetention, SlowerConsumerHoldsItsChunks) {
  MetricsRegistry registry;
  Broker broker(&registry);
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer fast(broker, "t");
  Consumer slow(broker, "t");
  fill(broker, "t", 3 * kChunk + 7);

  ASSERT_EQ(consume(fast, 3 * kChunk + 7).size(), 3 * kChunk + 7);
  EXPECT_EQ(broker.low_water("t", 0), 0u);  // slow has read nothing
  ASSERT_EQ(consume(slow, kChunk + 5).size(), kChunk + 5);
  // slow still needs chunk 1 (from offset kChunk + 5 on); chunk 0 is gone.
  EXPECT_EQ(broker.low_water("t", 0), kChunk);
  expect_contiguous(broker.fetch("t", 0, kChunk, 10), kChunk);

  const MetricLabels labels{{"topic", "t"}};
  Counter& below =
      registry.counter("loglens_broker_fetch_below_horizon_total", labels);
  EXPECT_TRUE(broker.fetch("t", 0, kChunk - 1, 10).empty());
  EXPECT_EQ(below.value(), 1u);

  auto rest = consume(slow, 2 * kChunk + 2);
  ASSERT_EQ(rest.size(), 2 * kChunk + 2);
  expect_contiguous(rest, kChunk + 5);
  EXPECT_EQ(broker.low_water("t", 0), 3 * kChunk);
  EXPECT_EQ(broker.end_offset("t", 0), 3 * kChunk + 7);  // offsets absolute
  EXPECT_EQ(
      registry.gauge("loglens_broker_retained_messages", labels).value(), 7);
  EXPECT_EQ(registry.gauge("loglens_broker_low_water", labels).value(),
            static_cast<int64_t>(3 * kChunk));
  EXPECT_EQ(
      registry.counter("loglens_broker_freed_messages_total", labels).value(),
      3 * kChunk);
  EXPECT_EQ(below.value(), 1u);  // the consumers never read below the mark
}

TEST(BrokerRetention, DestroyedConsumerReleasesItsHold) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer reader(broker, "t");
  auto idle = std::make_unique<Consumer>(broker, "t");
  fill(broker, "t", 2 * kChunk + 1);
  ASSERT_EQ(consume(reader, 2 * kChunk + 1).size(), 2 * kChunk + 1);
  EXPECT_EQ(broker.low_water("t", 0), 0u);
  idle.reset();
  EXPECT_EQ(broker.low_water("t", 0), 2 * kChunk);
}

TEST(BrokerRetention, TopicWithoutHoldsKeepsEverything) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  fill(broker, "t", 2 * kChunk);
  {
    Consumer reader(broker, "t");
    ASSERT_EQ(consume(reader, kChunk).size(), kChunk);
    EXPECT_EQ(broker.low_water("t", 0), kChunk);
  }
  // The last reader left: nothing more is freed, whatever is appended.
  fill(broker, "t", 3 * kChunk);
  EXPECT_EQ(broker.low_water("t", 0), kChunk);
  EXPECT_EQ(broker.fetch("t", 0, kChunk, 5 * kChunk).size(), 4 * kChunk);
}

TEST(BrokerRetention, LateConsumerStartsAtLowWaterMark) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer first(broker, "t");
  fill(broker, "t", 2 * kChunk + 10);
  ASSERT_EQ(consume(first, 2 * kChunk + 5).size(), 2 * kChunk + 5);
  ASSERT_EQ(broker.low_water("t", 0), 2 * kChunk);

  Consumer late(broker, "t");
  EXPECT_EQ(late.offsets(), std::vector<uint64_t>{2 * kChunk});
  EXPECT_EQ(late.lag(), 10u);
  auto got = consume(late, 10);
  ASSERT_EQ(got.size(), 10u);
  expect_contiguous(got, 2 * kChunk);
}

TEST(BrokerRetention, ConsumerRegisteredBeforeItsTopicHoldsFromZero) {
  Broker broker;
  Consumer early(broker, "later");
  ASSERT_TRUE(broker.create_topic("later", 2).ok());
  fill(broker, "later", 2 * kChunk, "a");
  fill(broker, "later", 2 * kChunk, "b");
  Consumer reader(broker, "later");
  ASSERT_EQ(consume(reader, 4 * kChunk).size(), 4 * kChunk);
  for (size_t p = 0; p < 2; ++p) EXPECT_EQ(broker.low_water("later", p), 0u);
  ASSERT_EQ(consume(early, 4 * kChunk).size(), 4 * kChunk);
  uint64_t low = 0;
  for (size_t p = 0; p < 2; ++p) low += broker.low_water("later", p);
  EXPECT_GT(low, 0u);
}

TEST(BrokerRetention, SeekBelowLowWaterMarkIsRefused) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer consumer(broker, "t");
  fill(broker, "t", 2 * kChunk + 1);
  ASSERT_EQ(consume(consumer, 2 * kChunk + 1).size(), 2 * kChunk + 1);
  ASSERT_EQ(broker.low_water("t", 0), 2 * kChunk);

  EXPECT_FALSE(consumer.seek({kChunk}).ok());
  EXPECT_EQ(consumer.offsets(), std::vector<uint64_t>{2 * kChunk + 1});
  EXPECT_EQ(broker.low_water("t", 0), 2 * kChunk);

  ASSERT_TRUE(consumer.seek({2 * kChunk}).ok());
  auto again = consumer.poll(10);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].seq, static_cast<int64_t>(2 * kChunk));
}

TEST(BrokerRetention, HoldPastTheEndKeepsTheChunkBeingAppended) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer consumer(broker, "t");
  fill(broker, "t", kChunk + 5);
  ASSERT_TRUE(consumer.seek({10 * kChunk}).ok());
  EXPECT_EQ(broker.low_water("t", 0), kChunk);
  fill(broker, "t", 3);
  expect_contiguous(broker.fetch("t", 0, kChunk, 100), kChunk);
  EXPECT_EQ(broker.fetch("t", 0, kChunk, 100).size(), 8u);
}

TEST(BrokerRetention, PinHoldsChunks) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 1).ok());
  Consumer consumer(broker, "t");
  RetentionHold pin(broker, "t");
  ASSERT_TRUE(pin.move_to({kChunk + 3}).ok());
  fill(broker, "t", 3 * kChunk);
  ASSERT_EQ(consume(consumer, 3 * kChunk).size(), 3 * kChunk);
  EXPECT_EQ(broker.low_water("t", 0), kChunk);

  // A consumer may rewind to the pin, and it redelivers from there.
  ASSERT_TRUE(consumer.seek({kChunk + 3}).ok());
  auto replay = consume(consumer, 2 * kChunk - 3);
  ASSERT_EQ(replay.size(), 2 * kChunk - 3);
  expect_contiguous(replay, kChunk + 3);

  pin.advance(0, 3 * kChunk);
  EXPECT_EQ(broker.low_water("t", 0), 3 * kChunk);
  EXPECT_FALSE(pin.move_to({kChunk}).ok());
}

TEST(BrokerRetention, LowWaterGaugeIsTheLowestPartition) {
  MetricsRegistry registry;
  Broker broker(&registry);
  ASSERT_TRUE(broker.create_topic("t", 2).ok());
  Consumer consumer(broker, "t");
  // One key per partition, by the broker's key hash.
  std::string keys[2];
  for (int i = 0; keys[0].empty() || keys[1].empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    keys[fnv1a(key) % 2] = key;
  }
  fill(broker, "t", 3 * kChunk, keys[0]);
  fill(broker, "t", kChunk + 1, keys[1]);
  ASSERT_EQ(consume(consumer, 4 * kChunk + 1).size(), 4 * kChunk + 1);
  EXPECT_EQ(broker.low_water("t", 0), 3 * kChunk);
  EXPECT_EQ(broker.low_water("t", 1), kChunk);
  const MetricLabels labels{{"topic", "t"}};
  EXPECT_EQ(registry.gauge("loglens_broker_low_water", labels).value(),
            static_cast<int64_t>(kChunk));
  EXPECT_EQ(
      registry.gauge("loglens_broker_retained_messages", labels).value(), 1);
}

// The service frees behind its slowest reader, the heartbeat controller
// included: after every drain, each topic that has a reader stores at most
// the chunk being appended to, per partition, and streaming D1 ten times
// over leaves as many stored chunks as streaming it once. The stock service
// stores nothing on the reader-less "metrics" topic.
TEST(BrokerRetention, ServiceRetainsAtMostOneChunkPerPartition) {
  const Dataset d1 = make_d1(0.3);
  ASSERT_GT(d1.testing.size(), kChunk);
  const char* const topics[] = {"ingest", "logs", "parsed", "anomalies"};
  auto stored_chunks = [&](size_t repeats) {
    MetricsRegistry registry;
    ServiceOptions opts;
    opts.build.discovery = recommended_discovery("D1");
    opts.metrics = &registry;
    LogLensService service(opts);
    service.train(d1.training);
    Agent agent = service.make_agent("D1");
    Broker& broker = service.broker();
    std::map<std::string, uint64_t> chunks;
    auto check = [&] {
      chunks.clear();
      for (const char* topic : topics) {
        uint64_t retained = 0;
        for (size_t p = 0; p < broker.partition_count(topic); ++p) {
          const uint64_t held =
              broker.end_offset(topic, p) - broker.low_water(topic, p);
          EXPECT_LT(held, kChunk) << topic << "/" << p;
          retained += held;
          chunks[topic] += (held + kChunk - 1) / kChunk;
        }
        EXPECT_EQ(registry
                      .gauge("loglens_broker_retained_messages",
                             {{"topic", topic}})
                      .value(),
                  static_cast<int64_t>(retained))
            << topic;
      }
    };
    const size_t n = d1.testing.size();
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t s = 0; s < 10; ++s) {
        agent.replay({d1.testing.begin() + n * s / 10,
                      d1.testing.begin() + n * (s + 1) / 10});
        service.drain();
        check();
      }
    }
    EXPECT_GE(broker.end_offset("logs", 0), repeats * n);
    // The "metrics" topic has no reader, so nothing ever frees it: a stock
    // service must not publish to it at all.
    EXPECT_EQ(broker.end_offset("metrics", 0), 0u) << repeats;
    return chunks;
  };
  const auto once = stored_chunks(1);
  EXPECT_EQ(stored_chunks(10), once);
}

// With a checkpoint_path, `anomalies` is freed behind the sink like every
// other topic with a reader, and recover() rolls the anomaly store back
// without re-reading the topic. At 1x and 30x a stream that yields more
// than a chunk of anomalies per pass, checkpointing after every drain, the
// topic stores less than one chunk, and recover() restores the checkpointed
// count while fetching no `anomalies` message.
TEST(BrokerRetention, CheckpointedServiceFreesAnomaliesAndRecoverReadsNone) {
  const Dataset d1 = make_d1(0.05);
  // D1 with a line no pattern parses after each of its lines and then some:
  // every such line becomes one UNPARSED_LOG anomaly.
  const size_t unparsed = kChunk + kChunk / 4;
  std::vector<std::string> stream;
  for (size_t i = 0; i < std::max(unparsed, d1.testing.size()); ++i) {
    if (i < d1.testing.size()) stream.push_back(d1.testing[i]);
    if (i < unparsed) {
      stream.push_back("%% no pattern parses " + std::to_string(i));
    }
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "loglens_retention_ckpt.json")
          .string();
  auto run = [&](size_t repeats) {
    SCOPED_TRACE(std::to_string(repeats) + "x");
    MetricsRegistry registry;
    ServiceOptions opts;
    opts.build.discovery = recommended_discovery("D1");
    opts.metrics = &registry;
    opts.checkpoint_path = path;
    LogLensService service(opts);
    service.train(d1.training);
    Agent agent = service.make_agent("D1");
    Broker& broker = service.broker();
    const size_t n = stream.size();
    uint64_t most_held = 0;
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t s = 0; s < 4; ++s) {
        agent.replay({stream.begin() + n * s / 4,
                      stream.begin() + n * (s + 1) / 4});
        service.drain();
        ASSERT_TRUE(service.checkpoint(path).ok());
        most_held = std::max(most_held, broker.end_offset("anomalies", 0) -
                                            broker.low_water("anomalies", 0));
      }
    }
    EXPECT_LT(most_held, kChunk);
    const size_t at_checkpoint = service.anomalies().count();
    EXPECT_GT(at_checkpoint, repeats * unparsed);

    // Output past the checkpoint, which recover() must roll back.
    agent.replay({stream.begin(), stream.begin() + n / 4});
    service.drain();
    ASSERT_GT(service.anomalies().count(), at_checkpoint);
    Counter& fetched = registry.counter(
        "loglens_broker_messages_fetched_total", {{"topic", "anomalies"}});
    const uint64_t fetched_before = fetched.value();
    ASSERT_TRUE(service.recover().ok());
    EXPECT_EQ(service.anomalies().count(), at_checkpoint);
    EXPECT_EQ(fetched.value(), fetched_before);
  };
  run(1);
  run(30);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace loglens
