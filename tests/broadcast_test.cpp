#include "streaming/broadcast.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace loglens {
namespace {

TEST(Broadcast, InitialValueServedToAllPartitions) {
  Broadcast<std::string> bv(1, "model-v1", 4);
  for (size_t p = 0; p < 4; ++p) {
    auto v = bv.value(p);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "model-v1");
  }
  // First access per partition is a pull; afterwards it's a cache hit.
  EXPECT_EQ(bv.pulls(), 4u);
  bv.value(0);
  bv.value(0);
  EXPECT_EQ(bv.pulls(), 4u);
  EXPECT_EQ(bv.cache_hits(), 2u);
}

TEST(Broadcast, RebroadcastInvalidatesEveryPartitionCache) {
  Broadcast<std::string> bv(1, "v1", 3);
  for (size_t p = 0; p < 3; ++p) bv.value(p);
  uint64_t pulls_before = bv.pulls();
  bv.update(std::make_shared<const std::string>("v2"));
  EXPECT_EQ(bv.version(), 1u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(*bv.value(p), "v2");
  }
  EXPECT_EQ(bv.pulls(), pulls_before + 3);  // every partition re-pulled
}

TEST(Broadcast, IdentityStableAcrossUpdates) {
  Broadcast<int> bv(42, 1, 2);
  uint64_t id = bv.id();
  bv.update(std::make_shared<const int>(2));
  bv.update(std::make_shared<const int>(3));
  EXPECT_EQ(bv.id(), id);  // the paper: same BV id after rebroadcast
  EXPECT_EQ(bv.version(), 2u);
  EXPECT_EQ(*bv.value(0), 3);
}

TEST(Broadcast, OldSharedPtrRemainsValidAfterUpdate) {
  Broadcast<std::string> bv(1, "old", 1);
  auto old = bv.value(0);
  bv.update(std::make_shared<const std::string>("new"));
  EXPECT_EQ(*old, "old");  // a batch holding the old model keeps it alive
  EXPECT_EQ(*bv.value(0), "new");
}

TEST(Broadcast, ConcurrentReadersDuringUpdates) {
  Broadcast<std::string> bv(1, "a", 8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t p = 0; p < 8; ++p) {
    readers.emplace_back([&bv, p, &stop] {
      while (!stop.load()) {
        auto v = bv.value(p);
        // Value is always one of the published strings, never torn.
        ASSERT_TRUE(*v == "a" || *v == "b" || *v == "c");
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    bv.update(
        std::make_shared<const std::string>(i % 2 == 0 ? "b" : "c"));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bv.version(), 50u);
}

}  // namespace
}  // namespace loglens
