// Concurrency stress tests for the streaming substrate: many batches, many
// partitions, model updates racing with processing, and state integrity
// across the whole run.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "streaming/engine.h"
#include "streaming/job.h"

namespace loglens {
namespace {

Message msg(std::string key, std::string value,
            MessageTag tag = MessageTag::kData) {
  Message m;
  m.key = std::move(key);
  m.value = std::move(value);
  m.tag = tag;
  return m;
}

// Keyed counter task: counts records per key, emits nothing. State must be
// exact at the end no matter how batches were scheduled.
class CountTask : public PartitionTask {
 public:
  void process(const Message& m, TaskContext&) override {
    if (m.tag == MessageTag::kHeartbeat) {
      ++heartbeats_;
      return;
    }
    ++counts_[m.key];
  }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }
  uint64_t heartbeats() const { return heartbeats_; }

 private:
  std::map<std::string, uint64_t> counts_;
  uint64_t heartbeats_ = 0;
};

TEST(StreamingStress, ExactCountsAcrossManyBatches) {
  EngineOptions opts;
  opts.partitions = 8;
  opts.workers = 4;
  StreamEngine engine(opts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<CountTask>();
  });
  constexpr int kKeys = 50;
  constexpr int kBatches = 100;
  constexpr int kPerBatch = 200;
  uint64_t sent = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Message> batch;
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(msg("key" + std::to_string((b + i) % kKeys), "v"));
      ++sent;
    }
    engine.run_batch(std::move(batch));
  }
  std::map<std::string, uint64_t> merged;
  for (size_t p = 0; p < 8; ++p) {
    for (const auto& [k, v] :
         dynamic_cast<CountTask&>(engine.task(p)).counts()) {
      merged[k] += v;
    }
  }
  uint64_t total = 0;
  for (const auto& [_, v] : merged) total += v;
  EXPECT_EQ(total, sent);
  EXPECT_EQ(merged.size(), kKeys);
  // Keyed partitioning: each key is counted on exactly one partition.
  for (size_t p = 0; p < 8; ++p) {
    for (const auto& [k, v] :
         dynamic_cast<CountTask&>(engine.task(p)).counts()) {
      EXPECT_EQ(v, merged[k]) << k;  // no key split across partitions
    }
  }
}

TEST(StreamingStress, HeartbeatsReachEveryPartitionEveryTime) {
  EngineOptions opts;
  opts.partitions = 5;
  opts.workers = 3;
  StreamEngine engine(opts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<CountTask>();
  });
  for (int b = 0; b < 50; ++b) {
    std::vector<Message> batch;
    batch.push_back(msg("k" + std::to_string(b), "v"));
    batch.push_back(msg("src", "", MessageTag::kHeartbeat));
    engine.run_batch(std::move(batch));
  }
  for (size_t p = 0; p < 5; ++p) {
    EXPECT_EQ(dynamic_cast<CountTask&>(engine.task(p)).heartbeats(), 50u);
  }
}

TEST(StreamingStress, ControlOpsSerializedAgainstBatches) {
  // A control op mutates shared state with no lock of its own; if it ever
  // ran concurrently with a batch, the checker task would observe a torn
  // value. 500 alternations make a race overwhelmingly likely to surface.
  struct Shared {
    std::atomic<int> version{0};
    std::atomic<bool> torn{false};
  };
  auto shared = std::make_shared<Shared>();
  struct Checker : PartitionTask {
    std::shared_ptr<Shared> shared;
    explicit Checker(std::shared_ptr<Shared> s) : shared(std::move(s)) {}
    void process(const Message&, TaskContext&) override {
      int v1 = shared->version.load();
      std::this_thread::yield();
      int v2 = shared->version.load();
      if (v1 != v2) shared->torn = true;  // changed mid-batch
    }
  };
  EngineOptions opts;
  opts.partitions = 4;
  opts.workers = 4;
  StreamEngine engine(opts, [&shared](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<Checker>(shared);
  });
  for (int i = 0; i < 500; ++i) {
    engine.enqueue_control([shared] { shared->version.fetch_add(1); });
    std::vector<Message> batch;
    for (int k = 0; k < 16; ++k) batch.push_back(msg("k" + std::to_string(k), "v"));
    engine.run_batch(std::move(batch));
  }
  EXPECT_FALSE(shared->torn.load());
  EXPECT_EQ(shared->version.load(), 500);
}

TEST(StreamingStress, ProducersRaceJobRunner) {
  Broker broker;
  broker.create_topic("in", 4);
  broker.create_topic("out", 1);
  EngineOptions opts;
  opts.partitions = 4;
  opts.workers = 2;
  struct Echo : PartitionTask {
    void process(const Message& m, TaskContext& ctx) override { ctx.emit(m); }
  };
  StreamEngine engine(opts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<Echo>();
  });
  JobRunner runner(broker, engine, {"in", "out", 64, 5});
  runner.start();
  constexpr int kThreads = 3;
  constexpr int kEach = 400;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&broker, t] {
      for (int i = 0; i < kEach; ++i) {
        Message m;
        m.key = "p" + std::to_string(t) + "-" + std::to_string(i);
        m.value = "x";
        m.tag = MessageTag::kData;
        broker.produce("in", std::move(m));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (int spin = 0; spin < 400; ++spin) {
    if (broker.end_offset("out", 0) >= kThreads * kEach) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.stop();
  EXPECT_EQ(broker.end_offset("out", 0),
            static_cast<uint64_t>(kThreads * kEach));
}

TEST(StreamingStress, RebroadcastUnderLoadNeverTearsValue) {
  auto bv = std::make_shared<Broadcast<std::string>>(
      1, std::string(1000, 'a'), 4);
  struct Reader : PartitionTask {
    std::shared_ptr<Broadcast<std::string>> bv;
    size_t partition;
    std::atomic<bool>* bad;
    Reader(std::shared_ptr<Broadcast<std::string>> b, size_t p,
           std::atomic<bool>* bad_flag)
        : bv(std::move(b)), partition(p), bad(bad_flag) {}
    void process(const Message&, TaskContext&) override {
      auto v = bv->value(partition);
      // A valid value is homogeneous; a torn one would not be.
      char c = (*v)[0];
      for (char x : *v) {
        if (x != c) {
          *bad = true;
          break;
        }
      }
    }
  };
  std::atomic<bool> bad{false};
  EngineOptions opts;
  opts.partitions = 4;
  opts.workers = 4;
  StreamEngine engine(opts, [&](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<Reader>(bv, p, &bad);
  });
  for (int i = 0; i < 200; ++i) {
    engine.enqueue_control([bv, i] {
      bv->update(
          std::make_shared<const std::string>(1000, i % 2 == 0 ? 'b' : 'c'));
    });
    std::vector<Message> batch;
    for (int k = 0; k < 8; ++k) batch.push_back(msg("k" + std::to_string(k), "v"));
    engine.run_batch(std::move(batch));
  }
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(bv->version(), 200u);
}

}  // namespace
}  // namespace loglens
