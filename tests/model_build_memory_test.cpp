// Bounds the model builder's memory: the live-heap high-water of
// ModelBuilder::build, above what was live before it, as a multiple of the
// training text's bytes. A global counting operator new/delete tracks live
// bytes (malloc_usable_size, so a block counts the same on both sides).
//
// Each tokenized line is one exactly sized record, freed as soon as the
// line is parsed, so the tokenized and the parsed corpus are never both
// whole, and the re-parse threads share one compiled model. This builder
// reads 4.6x on D4 and 10.9x on D1 (a 4-core x86-64 machine); each bound
// is that plus 10%. A builder that keeps every tokenized log alive until
// the parse ends, with each token's text in its own string and a copy of
// the model per thread, reads 11.5-11.8x and 14.3x and fails both. On D1 the
// peak is the learn phase's (event-ID discovery over the parsed corpus).
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "service/model_ops.h"

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const int64_t live =
      g_live.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// std::stable_sort's temporary buffer comes from the nothrow form and goes
// back through the plain operator delete, so both forms must be ours.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
// Not inlined, as in parser_allocation_test: GCC 12 at -O3 would see free()
// on memory from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  counted_free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace loglens {
namespace {

// The build's live-heap high-water above the live bytes before it, per
// byte of training text.
double build_peak_ratio(const char* dataset, double scale) {
  const Dataset ds = make_dataset(dataset, scale);
  size_t text_bytes = 0;
  for (const auto& line : ds.training) text_bytes += line.size();
  BuildOptions opts;
  opts.discovery = recommended_discovery(dataset);
  const ModelBuilder builder(opts);

  const int64_t before = g_live.load();
  g_peak.store(before);
  const BuildResult result = builder.build(ds.training);
  const double ratio = static_cast<double>(g_peak.load() - before) /
                       static_cast<double>(text_bytes);
  EXPECT_EQ(result.unparsed_training_logs, 0u);
  std::printf("%s x%.1f: %zu lines, %zu text bytes, build peak %.2fx, "
              "corpus %.0f B per line\n",
              dataset, scale, ds.training.size(), text_bytes, ratio,
              static_cast<double>(result.corpus_bytes) /
                  static_cast<double>(ds.training.size()));
  return ratio;
}

TEST(ModelBuildMemory, D4PeakIsBoundedByTheTrainingText) {
  EXPECT_LE(build_peak_ratio("D4", 0.1), 5.1);
}

TEST(ModelBuildMemory, D1PeakIsBoundedByTheTrainingText) {
  EXPECT_LE(build_peak_ratio("D1", 2.0), 12.0);
}

TEST(ModelBuildMemory, CorpusBytesCountEveryRecord) {
  const std::vector<std::string> lines = {
      "2016/02/23 09:00:31 10.0.0.1 login user1",
      "2016/02/23 09:00:32 10.0.0.2 login user2",
  };
  const BuildResult result = ModelBuilder().build(lines);
  // Each record holds at least its line plus the 23-byte canonical
  // DATETIME, and at least one 12-byte token per token.
  EXPECT_EQ(sizeof(Token), 12u);
  const size_t floor = 2 * (sizeof(TokenizedLog) + lines[0].size() + 23 +
                            4 * sizeof(Token));
  EXPECT_GE(result.corpus_bytes, floor);
  EXPECT_LE(result.corpus_bytes, floor + 2 * 32);
}

}  // namespace
}  // namespace loglens
