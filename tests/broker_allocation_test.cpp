// Pins the broker's retention cost to amortized O(1) per message. A global
// counting operator new sums every byte allocated while one partition
// grows message by message: the chunked log allocates each fixed-size
// chunk once, about N·sizeof(Message) in total, whereas sizing the log
// exactly on every append (reserve(size() + n)) reallocates the whole
// partition each time — about N²/2·sizeof(Message), quadratic in stream
// length.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "broker/broker.h"

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

constexpr uint64_t kMessages = 4096;

TEST(BrokerAllocationTest, RetentionBytesStayLinearInStreamLength) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t").ok());

  const uint64_t before = g_bytes.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < kMessages; ++i) {
    std::vector<Message> batch(1);
    ASSERT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
  }
  for (uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(broker.produce("t", Message{}).ok());
  }
  const uint64_t allocated = g_bytes.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(broker.end_offset("t"), 2 * kMessages);
  EXPECT_LE(allocated, 8 * kMessages * sizeof(Message))
      << "allocated " << allocated / sizeof(Message)
      << " Message-sizes for " << 2 * kMessages << " appends";
}

}  // namespace
}  // namespace loglens
