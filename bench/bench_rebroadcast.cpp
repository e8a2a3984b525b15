// Section V-A: dynamic model update overhead. The paper claims the
// rebroadcast pause is "negligible" and proportional only to the model's
// in-memory copy cost. Here a deployed model is loaded once and shared, so
// the rebroadcast itself copies nothing: it swaps a pointer, and each
// partition re-pulls that pointer at its next batch. We measure micro-batch
// latency with and without a pending model update, swept over model size.
// What a stage then does with the new model (rebuilding its parser) is timed
// by loglens_model_update_pause_us, not here.
#include <benchmark/benchmark.h>

#include "service/model.h"
#include "service/tasks.h"
#include "streaming/engine.h"

namespace loglens {
namespace {

CompositeModel model_of_size(size_t patterns) {
  CompositeModel m;
  for (size_t i = 1; i <= patterns; ++i) {
    auto p = GrokPattern::parse("svc" + std::to_string(i) +
                                " op %{NOTSPACE:a} val %{NUMBER:b}");
    p->assign_field_ids(static_cast<int>(i));
    m.patterns.push_back(std::move(p.value()));
  }
  return m;
}

std::vector<Message> small_batch() {
  std::vector<Message> batch;
  for (int i = 0; i < 64; ++i) {
    Message msg;
    msg.key = "k" + std::to_string(i);
    msg.value = "svc1 op x val " + std::to_string(i);
    msg.tag = MessageTag::kData;
    msg.source = "bench";
    batch.push_back(std::move(msg));
  }
  return batch;
}

// A task that pulls the broadcast once per batch, like the real stages do.
struct PullTask : PartitionTask {
  std::shared_ptr<ModelBroadcast> bv;
  size_t partition;
  size_t patterns = 0;
  PullTask(std::shared_ptr<ModelBroadcast> b, size_t p)
      : bv(std::move(b)), partition(p) {}
  void on_batch_start(TaskContext&) override {
    patterns = bv->value(partition)->patterns.size();
  }
  void process(const Message&, TaskContext&) override {
    benchmark::DoNotOptimize(patterns);
  }
};

void run(benchmark::State& state, bool update_each_batch) {
  const auto patterns = static_cast<size_t>(state.range(0));
  auto bv = std::make_shared<ModelBroadcast>(1, model_of_size(patterns), 4);
  EngineOptions opts;
  opts.partitions = 4;
  opts.workers = 2;
  StreamEngine engine(opts, [&bv](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<PullTask>(bv, p);
  });
  auto replacement =
      std::make_shared<const CompositeModel>(model_of_size(patterns));
  auto batch = small_batch();
  for (auto _ : state) {
    if (update_each_batch) {
      engine.enqueue_control([&bv, &replacement] {
        bv->update(replacement);  // a pointer swap: nothing is copied
      });
    }
    BatchResult r = engine.run_batch(batch);
    benchmark::DoNotOptimize(r.outputs.size());
  }
  state.counters["pulls"] = static_cast<double>(bv->pulls());
}

void BM_BatchSteadyState(benchmark::State& state) { run(state, false); }
BENCHMARK(BM_BatchSteadyState)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(3000)
    ->Unit(benchmark::kMicrosecond);

void BM_BatchWithModelUpdate(benchmark::State& state) { run(state, true); }
BENCHMARK(BM_BatchWithModelUpdate)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(3000)
    ->Unit(benchmark::kMicrosecond);

// The raw rebroadcast cost in isolation: pointer swap + version bump + the
// four partition re-pulls.
void BM_RebroadcastAlone(benchmark::State& state) {
  const auto patterns = static_cast<size_t>(state.range(0));
  Broadcast<CompositeModel> bv(1, model_of_size(patterns), 4);
  auto replacement =
      std::make_shared<const CompositeModel>(model_of_size(patterns));
  for (auto _ : state) {
    bv.update(replacement);
    for (size_t p = 0; p < 4; ++p) {
      benchmark::DoNotOptimize(bv.value(p));
    }
  }
}
BENCHMARK(BM_RebroadcastAlone)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(3000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace loglens

BENCHMARK_MAIN();
