#include "streaming/job.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace loglens {
namespace {

Message msg(std::string key, std::string value) {
  Message m;
  m.key = std::move(key);
  m.value = std::move(value);
  m.tag = MessageTag::kData;
  return m;
}

class UpperTask : public PartitionTask {
 public:
  void process(const Message& m, TaskContext& ctx) override {
    Message out = m;
    for (auto& c : out.value) c = static_cast<char>(toupper(c));
    ctx.emit(std::move(out));
  }
};

StreamEngine make_engine() {
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 2;
  return StreamEngine(opts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<UpperTask>();
  });
}

TEST(JobRunner, DrainProcessesBacklogSynchronously) {
  Broker broker;
  broker.create_topic("in", 1);
  broker.create_topic("out", 1);
  for (int i = 0; i < 10; ++i) {
    broker.produce("in", msg("k" + std::to_string(i), "hello"));
  }
  StreamEngine engine = make_engine();
  JobRunner runner(broker, engine, {"in", "out", 4, 10});
  runner.drain();
  EXPECT_EQ(runner.records_in(), 10u);
  EXPECT_GE(runner.batches(), 3u);  // batch size 4 => at least 3 batches
  EXPECT_EQ(broker.end_offset("out", 0), 10u);
  auto out = broker.fetch("out", 0, 0, 100);
  EXPECT_EQ(out[0].value, "HELLO");
}

TEST(JobRunner, BackgroundLoopProcessesStream) {
  Broker broker;
  broker.create_topic("in", 1);
  broker.create_topic("out", 1);
  StreamEngine engine = make_engine();
  JobRunner runner(broker, engine, {"in", "out", 16, 10});
  runner.start();
  for (int i = 0; i < 25; ++i) {
    broker.produce("in", msg("k" + std::to_string(i), "x"));
    if (i % 10 == 9) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // Wait (bounded) for the pipeline to catch up.
  for (int spin = 0; spin < 200 && broker.end_offset("out", 0) < 25; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.stop();
  EXPECT_EQ(broker.end_offset("out", 0), 25u);
}

TEST(JobRunner, StopDrainsBufferedInput) {
  Broker broker;
  broker.create_topic("in", 1);
  broker.create_topic("out", 1);
  StreamEngine engine = make_engine();
  JobRunner runner(broker, engine, {"in", "out", 8, 10});
  runner.start();
  for (int i = 0; i < 40; ++i) broker.produce("in", msg("k", "y"));
  runner.stop();  // must not strand anything
  EXPECT_EQ(broker.end_offset("out", 0), 40u);
}

TEST(JobRunner, EmptyOutputTopicDropsOutputs) {
  Broker broker;
  broker.create_topic("in", 1);
  broker.produce("in", msg("k", "v"));
  StreamEngine engine = make_engine();
  JobRunner runner(broker, engine, {"in", "", 8, 10});
  runner.drain();
  EXPECT_EQ(runner.records_in(), 1u);
  EXPECT_TRUE(broker.topics().size() == 1u);  // no out topic created
}

TEST(JobRunner, StartIsIdempotentAndRestartable) {
  Broker broker;
  broker.create_topic("in", 1);
  broker.create_topic("out", 1);
  StreamEngine engine = make_engine();
  JobRunner runner(broker, engine, {"in", "out", 8, 10});
  runner.start();
  runner.start();  // no-op
  broker.produce("in", msg("k", "a"));
  runner.stop();
  runner.stop();  // no-op
  EXPECT_EQ(broker.end_offset("out", 0), 1u);
}

}  // namespace
}  // namespace loglens
