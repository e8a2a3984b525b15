// Pins the log archive's per-log heap cost to one copy of the line. A global
// counting operator new sums every byte allocated while LogStore::add
// archives ~1000-byte lines: the stored document (the line plus its source
// and the hot segment's amortized slot) must come in under twice the line
// length. Any second copy of the line — a term-index key, a duplicate
// buffer — pushes the cost past that bound.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/stores.h"

namespace {
std::atomic<uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

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

  const uint64_t before = g_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasured; ++i) store.add("web", lines[i], i);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - before;

  const double per_add = static_cast<double>(bytes) / kMeasured;
  EXPECT_LT(per_add, 2.0 * kLineBytes)
      << "heap bytes per LogStore::add of a " << kLineBytes << "-byte line";
  EXPECT_EQ(store.size(), static_cast<size_t>(kWarmup + kMeasured));
}

}  // namespace
}  // namespace loglens
