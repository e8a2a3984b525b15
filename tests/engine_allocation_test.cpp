// Allocation contract for StreamEngine::run_batch, with the counting
// operator new of tests/detector_allocation_test.cpp.
//
// The engine keeps its per-batch scratch (the routing vectors, the task
// contexts and the partition outcomes) across batches and hands partitions
// to its pool without a type-erased task object, so after a warm-up batch
// the engine itself allocates a constant number of blocks per batch, the
// same for 200 messages as for 2000. Routing vectors rebuilt per batch
// would grow from empty, about log2(batch / partitions) regrowths per
// partition per batch, so their count would rise with batch size.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "streaming/engine.h"
#include "trace/trace.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace loglens {
namespace {

class NoOpTask : public PartitionTask {
 public:
  void process(const Message&, TaskContext&) override {}
};

// Messages keyed so the default partitioner spreads them over both
// partitions; built before counting starts.
std::vector<Message> batch_of(size_t n) {
  std::vector<Message> batch(n);
  for (size_t i = 0; i < n; ++i) batch[i].key = "k" + std::to_string(i);
  return batch;
}

// Blocks allocated by one run_batch of `n` messages after `n`-message
// warm-up batches.
uint64_t steady_batch_allocations(size_t n) {
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 2;
  StreamEngine engine(opts, [](size_t) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<NoOpTask>();
  });
  for (int warm = 0; warm < 3; ++warm) engine.run_batch(batch_of(n));
  std::vector<Message> input = batch_of(n);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  BatchResult result = engine.run_batch(std::move(input));
  const uint64_t allocated =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(result.input_records, n);
  return allocated;
}

// The engine's own allocations; tracing would add span records.
class EngineAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = trace::enabled();
    trace::set_enabled(false);
  }
  void TearDown() override { trace::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = true;
};

TEST_F(EngineAllocationTest, SteadyBatchAllocatesConstantBlocks) {
  const uint64_t at_200 = steady_batch_allocations(200);
  const uint64_t at_2000 = steady_batch_allocations(2000);
  EXPECT_EQ(at_200, 0u) << "blocks per 200-message batch";
  EXPECT_EQ(at_2000, at_200) << "allocations grew with batch size";
}

}  // namespace
}  // namespace loglens
