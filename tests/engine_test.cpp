#include "streaming/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "metrics/metrics.h"

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

// Echoes every record, annotated with its partition; counts heartbeats.
class EchoTask : public PartitionTask {
 public:
  explicit EchoTask(size_t partition) : partition_(partition) {}

  void process(const Message& m, TaskContext& ctx) override {
    Message out = m;
    out.value = std::to_string(partition_) + ":" + m.value;
    ctx.emit(std::move(out));
    if (m.tag == MessageTag::kHeartbeat) ++heartbeats_;
    ++processed_;
  }

  size_t heartbeats() const { return heartbeats_; }
  size_t processed() const { return processed_; }

 private:
  size_t partition_;
  size_t heartbeats_ = 0;
  size_t processed_ = 0;
};

StreamEngine make_engine(size_t partitions, size_t workers = 2) {
  EngineOptions opts;
  opts.partitions = partitions;
  opts.workers = workers;
  return StreamEngine(opts, [](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<EchoTask>(p);
  });
}

TEST(Engine, ProcessesAllRecords) {
  StreamEngine engine = make_engine(4);
  std::vector<Message> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(msg("k" + std::to_string(i), std::to_string(i)));
  }
  BatchResult result = engine.run_batch(std::move(batch));
  EXPECT_EQ(result.input_records, 100u);
  EXPECT_EQ(result.outputs.size(), 100u);
  EXPECT_EQ(result.batch_number, 1u);
}

TEST(Engine, SameKeySamePartition) {
  StreamEngine engine = make_engine(4);
  std::vector<Message> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(msg("stable", "v"));
  BatchResult result = engine.run_batch(std::move(batch));
  std::set<char> partitions;
  for (const auto& m : result.outputs) partitions.insert(m.value[0]);
  EXPECT_EQ(partitions.size(), 1u);
}

TEST(Engine, HeartbeatsFanOutToEveryPartition) {
  StreamEngine engine = make_engine(3);
  Message hb = msg("src", "", MessageTag::kHeartbeat);
  hb.timestamp_ms = 12345;
  BatchResult result = engine.run_batch({hb});
  EXPECT_EQ(result.outputs.size(), 3u);  // one per partition
  for (size_t p = 0; p < 3; ++p) {
    auto& task = dynamic_cast<EchoTask&>(engine.task(p));
    EXPECT_EQ(task.heartbeats(), 1u);
  }
}

TEST(Engine, TasksPersistAcrossBatches) {
  StreamEngine engine = make_engine(2);
  engine.run_batch({msg("a", "1"), msg("b", "2")});
  engine.run_batch({msg("a", "3")});
  size_t total = 0;
  for (size_t p = 0; p < 2; ++p) {
    total += dynamic_cast<EchoTask&>(engine.task(p)).processed();
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(engine.batches_run(), 2u);
}

TEST(Engine, ControlOpsRunBetweenBatchesExactlyOnce) {
  StreamEngine engine = make_engine(2);
  std::atomic<int> applied{0};
  engine.enqueue_control([&applied] { applied.fetch_add(1); });
  engine.enqueue_control([&applied] { applied.fetch_add(1); });
  EXPECT_EQ(applied.load(), 0);  // nothing applied until a batch runs
  BatchResult r1 = engine.run_batch({msg("k", "v")});
  EXPECT_EQ(applied.load(), 2);
  EXPECT_EQ(r1.control_ops_applied, 2u);
  BatchResult r2 = engine.run_batch({});
  EXPECT_EQ(applied.load(), 2);  // not re-applied
  EXPECT_EQ(r2.control_ops_applied, 0u);
}

TEST(Engine, RebroadcastAppliedBeforeNextBatch) {
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 2;
  // Task that emits the current broadcast value for every record.
  struct BvTask : PartitionTask {
    std::shared_ptr<Broadcast<std::string>> bv;
    size_t partition;
    BvTask(std::shared_ptr<Broadcast<std::string>> b, size_t p)
        : bv(std::move(b)), partition(p) {}
    void process(const Message& m, TaskContext& ctx) override {
      Message out = m;
      out.value = *bv->value(partition);
      ctx.emit(std::move(out));
    }
  };
  auto bv = std::make_shared<Broadcast<std::string>>(1, "m1", 2);
  StreamEngine engine(opts, [&bv](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<BvTask>(bv, p);
  });
  auto r1 = engine.run_batch({msg("a", "x"), msg("b", "y")});
  for (const auto& m : r1.outputs) EXPECT_EQ(m.value, "m1");
  engine.enqueue_control(
      [&bv] { bv->update(std::make_shared<const std::string>("m2")); });
  auto r2 = engine.run_batch({msg("a", "x"), msg("b", "y")});
  for (const auto& m : r2.outputs) EXPECT_EQ(m.value, "m2");
}

TEST(Engine, CustomPartitioner) {
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 1;
  opts.partitioner = [](const Message& m, size_t) {
    return m.value == "left" ? 0u : 1u;
  };
  StreamEngine engine(opts, [](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<EchoTask>(p);
  });
  auto r = engine.run_batch({msg("a", "left"), msg("b", "right")});
  std::map<std::string, char> seen;
  for (const auto& m : r.outputs) seen[m.value.substr(2)] = m.value[0];
  EXPECT_EQ(seen["left"], '0');
  EXPECT_EQ(seen["right"], '1');
}

TEST(Engine, OutputsInPartitionOrder) {
  StreamEngine engine = make_engine(2, 4);
  std::vector<Message> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(msg("k" + std::to_string(i), std::to_string(i)));
  }
  auto r = engine.run_batch(std::move(batch));
  // Outputs are grouped by partition (0s then 1s), deterministic regardless
  // of worker scheduling.
  bool seen_one = false;
  for (const auto& m : r.outputs) {
    if (m.value[0] == '1') seen_one = true;
    if (seen_one) {
      EXPECT_EQ(m.value[0], '1');
    }
  }
}

TEST(Engine, EmptyBatchIsFine) {
  StreamEngine engine = make_engine(2);
  BatchResult r = engine.run_batch({});
  EXPECT_EQ(r.input_records, 0u);
  EXPECT_TRUE(r.outputs.empty());
}

// Regression: control ops used to run while holding the queue lock, so an
// op that enqueued a follow-up (a model instruction scheduling another
// rebroadcast) self-deadlocked. The engine now drains a swapped-out copy
// outside the lock; the follow-up lands in the *next* batch.
TEST(Engine, ControlOpMayEnqueueFollowUp) {
  StreamEngine engine = make_engine(2);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  engine.enqueue_control([&] {
    ++first;
    engine.enqueue_control([&] { ++second; });
  });
  BatchResult r1 = engine.run_batch({});
  EXPECT_EQ(r1.control_ops_applied, 1u);
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 0);
  BatchResult r2 = engine.run_batch({});
  EXPECT_EQ(r2.control_ops_applied, 1u);
  EXPECT_EQ(second.load(), 1);
}

// Regression: batches_run() is read from monitoring threads while run_batch
// advances the counter — the counter is atomic now; TSan would flag the old
// plain uint64_t here.
TEST(Engine, BatchesRunReadableWhileRunning) {
  StreamEngine engine = make_engine(2);
  std::atomic<bool> stop{false};
  uint64_t observed = 0;
  std::thread reader([&] {
    while (!stop.load()) observed = std::max(observed, engine.batches_run());
  });
  for (int i = 0; i < 50; ++i) {
    engine.run_batch({msg("k", std::to_string(i))});
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(engine.batches_run(), 50u);
  EXPECT_LE(observed, 50u);
}

// Records, per partition call, the thread and the number of partitions
// inside a task at that moment; sleeps a little so runs overlap.
struct RunLog {
  std::mutex mu;
  std::vector<std::thread::id> threads;
  std::vector<std::vector<int>> starts, ends;  // [partition][batch]
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};

  explicit RunLog(size_t partitions) : starts(partitions), ends(partitions) {}
};

class LoggingTask : public PartitionTask {
 public:
  LoggingTask(size_t partition, RunLog& log)
      : partition_(partition), log_(log) {}

  void on_batch_start(TaskContext& ctx) override {
    const int now = log_.in_flight.fetch_add(1) + 1;
    int old = log_.peak.load();
    while (now > old && !log_.peak.compare_exchange_weak(old, now)) {
    }
    std::lock_guard<std::mutex> lock(log_.mu);
    log_.threads.push_back(std::this_thread::get_id());
    log_.starts[partition_].push_back(static_cast<int>(ctx.batch_number()));
  }
  void process(const Message&, TaskContext&) override {}
  void on_batch_end(TaskContext& ctx) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      std::lock_guard<std::mutex> lock(log_.mu);
      log_.ends[partition_].push_back(static_cast<int>(ctx.batch_number()));
    }
    log_.in_flight.fetch_sub(1);
  }

 private:
  size_t partition_;
  RunLog& log_;
};

StreamEngine make_logging_engine(size_t partitions, size_t workers,
                                 RunLog& log, MetricsRegistry& registry) {
  EngineOptions opts;
  opts.partitions = partitions;
  opts.workers = workers;
  opts.metrics = &registry;
  return StreamEngine(opts, [&log](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<LoggingTask>(p, log);
  });
}

std::vector<Message> keyed_batch(int n) {
  std::vector<Message> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(msg("k" + std::to_string(i), std::to_string(i)));
  }
  return batch;
}

uint64_t partitions_run(MetricsRegistry& registry, const char* runner) {
  return registry
      .counter("loglens_engine_partitions_run_total",
               {{"runner", runner}, {"stage", "engine"}})
      .value();
}

// workers = 1 means no pool helper: every partition runs on the thread that
// called run_batch, which is what serial fault sequencing relies on.
TEST(Engine, OneWorkerRunsEveryTaskOnTheCaller) {
  RunLog log(4);
  MetricsRegistry registry;
  StreamEngine engine = make_logging_engine(4, 1, log, registry);
  for (int b = 0; b < 3; ++b) engine.run_batch(keyed_batch(20));
  ASSERT_EQ(log.threads.size(), 12u);
  for (const auto& id : log.threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(log.peak.load(), 1);
  EXPECT_EQ(partitions_run(registry, "caller"), 12u);
  EXPECT_EQ(partitions_run(registry, "helper"), 0u);
}

TEST(Engine, EachPartitionRunsOncePerBatchAtMostWorkersAtOnce) {
  RunLog log(4);
  MetricsRegistry registry;
  StreamEngine engine = make_logging_engine(4, 2, log, registry);
  constexpr int kBatches = 10;
  for (int b = 0; b < kBatches; ++b) engine.run_batch(keyed_batch(40));
  for (size_t p = 0; p < 4; ++p) {
    ASSERT_EQ(log.starts[p].size(), static_cast<size_t>(kBatches));
    for (int b = 0; b < kBatches; ++b) {
      EXPECT_EQ(log.starts[p][b], b + 1) << "partition " << p;
      EXPECT_EQ(log.ends[p][b], b + 1) << "partition " << p;
    }
  }
  EXPECT_LE(log.peak.load(), 2);
  EXPECT_EQ(partitions_run(registry, "caller") +
                partitions_run(registry, "helper"),
            4u * kBatches);
}

// A partition the batch routed nothing to still opens and closes the batch
// (the detector sweeps open states there on every heartbeat-free batch).
TEST(Engine, PartitionsWithNoInputStillStartAndEndTheBatch) {
  RunLog log(4);
  MetricsRegistry registry;
  StreamEngine engine = make_logging_engine(4, 2, log, registry);
  engine.run_batch({});
  engine.run_batch({msg("only", "one")});
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(log.starts[p], (std::vector<int>{1, 2})) << "partition " << p;
    EXPECT_EQ(log.ends[p], (std::vector<int>{1, 2})) << "partition " << p;
  }
}

// The engine reuses its routing vectors and task contexts: a batch starts
// with nothing left over from the previous one.
TEST(Engine, ReusedScratchCarriesNothingAcrossBatches) {
  StreamEngine engine = make_engine(3);
  auto r1 = engine.run_batch(keyed_batch(30));
  EXPECT_EQ(r1.outputs.size(), 30u);
  auto r2 = engine.run_batch({msg("k1", "x")});
  ASSERT_EQ(r2.outputs.size(), 1u);
  EXPECT_EQ(r2.outputs[0].value.substr(2), "x");
  EXPECT_TRUE(engine.run_batch({}).outputs.empty());
}

}  // namespace
}  // namespace loglens
