// Release-flavour counterpart of lock_rank_test: this target is compiled
// with -DLOGLENS_LOCK_RANK_CHECKS=0 (tests/CMakeLists.txt), pinning that
// RankedMutex degrades to a plain std::mutex passthrough — no bookkeeping,
// no aborts — which is what production Release builds get.

#include <gtest/gtest.h>

#include "common/lock_rank.h"

namespace loglens {
namespace {

static_assert(!lock_rank::checks_enabled(),
              "this target must be built with LOGLENS_LOCK_RANK_CHECKS=0");

TEST(LockRankReleaseTest, NoBookkeeping) {
  RankedMutex outer(lock_rank::kServiceRecover);
  RankedMutexLock lock(outer);
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRankReleaseTest, InversionPassesThrough) {
  // The same nesting that aborts in lock_rank_test: with checks compiled
  // out it must simply lock and unlock.
  RankedMutex broker(lock_rank::kBroker);
  RankedMutex consumer(lock_rank::kConsumer);
  {
    RankedMutexLock a(broker);
    RankedMutexLock b(consumer);
  }
  SUCCEED();
}

TEST(LockRankReleaseTest, TryLockStillLocks) {
  RankedMutex mu(lock_rank::kMetrics);
  ASSERT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
}

}  // namespace
}  // namespace loglens
