// Pins the log archive's per-log heap cost to one copy of the line. A global
// counting operator new counts the blocks and sums the bytes allocated while
// LogStore::add archives ~1000-byte lines. The line lands in a shared text
// block and its row in a shared row block, so an add allocates nothing of
// its own: the amortized block count stays near 0 and the bytes within 10%
// of the line. A per-line allocation (a document, a copy of the line, a
// term-index key) breaks the first bound; a second copy of the line breaks
// the second.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/stores.h"

namespace {
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace loglens {
namespace {

constexpr size_t kLineBytes = 1000;
constexpr int kWarmup = 256;
constexpr int kMeasured = 4096;

// A distinct line per index: a unique `raw` is the archive's common case.
std::string line(int i) {
  std::string s = "2016/02/23 09:00:31 worker-" + std::to_string(i) + " ";
  s.resize(kLineBytes, 'x');
  return s;
}

TEST(LogStoreAllocationTest, AddKeepsOneCopyOfTheLine) {
  LogStore store;
  for (int i = 0; i < kWarmup; ++i) store.add("web", line(i), i);

  // Lines are built before the window so only add() is counted.
  std::vector<std::string> lines;
  lines.reserve(kMeasured);
  for (int i = 0; i < kMeasured; ++i) lines.push_back(line(kWarmup + i));

  const uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasured; ++i) store.add("web", lines[i], i);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - bytes_before;
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  const double bytes_per_add = static_cast<double>(bytes) / kMeasured;
  const double allocs_per_add = static_cast<double>(allocs) / kMeasured;
  EXPECT_LE(allocs_per_add, 0.01)
      << "heap blocks per LogStore::add (" << allocs << " in " << kMeasured
      << " adds)";
  EXPECT_LE(bytes_per_add, 1.1 * kLineBytes)
      << "heap bytes per LogStore::add of a " << kLineBytes << "-byte line";
  EXPECT_EQ(store.size(), static_cast<size_t>(kWarmup + kMeasured));
}

}  // namespace
}  // namespace loglens
