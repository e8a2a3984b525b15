// Tests for the runtime lock-rank checker (common/lock_rank.h).
//
// This target is compiled with -DLOGLENS_LOCK_RANK_CHECKS=1 (see
// tests/CMakeLists.txt), so the checked behaviour is exercised regardless of
// the build type; lock_rank_release_test compiles the same RankedMutex with
// checks forced off and pins the passthrough behaviour.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/lock_rank.h"

namespace loglens {
namespace {

TEST(LockRankTest, ChecksAreCompiledIn) {
  EXPECT_TRUE(lock_rank::checks_enabled());
}

TEST(LockRankTest, InOrderNestingPasses) {
  RankedMutex outer(lock_rank::kServiceRecover);
  RankedMutex mid(lock_rank::kBroker);
  RankedMutex leaf(lock_rank::kMetrics);
  EXPECT_EQ(lock_rank::held_count(), 0);
  {
    RankedMutexLock a(outer);
    RankedMutexLock b(mid);
    RankedMutexLock c(leaf);
    EXPECT_EQ(lock_rank::held_count(), 3);
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRankDeathTest, RankInversionAborts) {
  RankedMutex broker(lock_rank::kBroker);
  RankedMutex consumer(lock_rank::kConsumer);
  EXPECT_DEATH(
      {
        RankedMutexLock a(broker);
        // kConsumer < kBroker: fetching under the consumer lock is legal,
        // but taking the consumer lock while holding the broker's is the
        // inversion that could deadlock against poll().
        RankedMutexLock b(consumer);
      },
      "lock rank violation");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  RankedMutex a(lock_rank::kStorage);
  RankedMutex b(lock_rank::kStorage);
  // Two same-rank locks (e.g. two DocumentStores) must never nest: with no
  // defined order between them, an ABBA deadlock would be one interleaving
  // away.
  EXPECT_DEATH(
      {
        RankedMutexLock la(a);
        RankedMutexLock lb(b);
      },
      "lock rank violation");
}

TEST(LockRankTest, SequentialSameRankIsFine) {
  RankedMutex a(lock_rank::kStorage);
  RankedMutex b(lock_rank::kStorage);
  { RankedMutexLock la(a); }
  { RankedMutexLock lb(b); }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRankTest, HeldSetIsPerThread) {
  RankedMutex outer(lock_rank::kEngineRun);
  RankedMutexLock hold(outer);
  // Another thread holds nothing, so it may take any rank — including one
  // below what this thread holds.
  std::thread t([] {
    RankedMutex low(lock_rank::kServiceRecover);
    RankedMutexLock l(low);
    EXPECT_EQ(lock_rank::held_count(), 1);
  });
  t.join();
  EXPECT_EQ(lock_rank::held_count(), 1);
}

TEST(LockRankTest, TryLockParticipates) {
  RankedMutex mu(lock_rank::kBroker);
  ASSERT_TRUE(mu.try_lock());
  EXPECT_EQ(lock_rank::held_count(), 1);
  mu.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRankTest, ManyThreadsContendWithoutFalsePositives) {
  // The checker must never misfire on a correct program: hammer a correctly
  // ordered pair from several threads.
  RankedMutex outer(lock_rank::kEngineRun);
  RankedMutex inner(lock_rank::kThreadPool);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        RankedMutexLock a(outer);
        RankedMutexLock b(inner);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRankTest, RankAccessor) {
  RankedMutex mu(lock_rank::kFaults);
  EXPECT_EQ(mu.rank(), lock_rank::kFaults);
}

}  // namespace
}  // namespace loglens
