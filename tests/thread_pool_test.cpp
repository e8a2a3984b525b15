#include "streaming/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace loglens {
namespace {

TEST(ThreadPool, RunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.run(hits.size(), [&hits](size_t i, ThreadPool::Runner) {
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRunReturnsImmediately) {
  ThreadPool pool(2);
  pool.run(0, [](size_t, ThreadPool::Runner) { FAIL(); });  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroHelpersRunEverythingOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.run(5, [&](size_t i, ThreadPool::Runner runner) {
    EXPECT_EQ(runner, ThreadPool::Runner::kCaller);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SingleIndexRunsOnTheCaller) {
  ThreadPool pool(2);
  ThreadPool::Runner seen = ThreadPool::Runner::kHelper;
  pool.run(1, [&seen](size_t, ThreadPool::Runner runner) { seen = runner; });
  EXPECT_EQ(seen, ThreadPool::Runner::kCaller);
}

TEST(ThreadPool, HelpersRunConcurrentlyWithTheCaller) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  std::atomic<int> on_helper{0};
  pool.run(8, [&](size_t, ThreadPool::Runner runner) {
    if (runner == ThreadPool::Runner::kHelper) on_helper.fetch_add(1);
    int now = in_flight.fetch_add(1) + 1;
    int old = peak.load();
    while (now > old && !peak.compare_exchange_weak(old, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in_flight.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 2);
  EXPECT_LE(peak.load(), 3);  // the caller plus two helpers
  EXPECT_GE(on_helper.load(), 1);
}

TEST(ThreadPool, ReturnsOnlyAfterEveryClaimedIndexFinished) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> finished{0};
    pool.run(4, [&finished](size_t i, ThreadPool::Runner) {
      if (i % 2 == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      finished.fetch_add(1);
    });
    ASSERT_EQ(finished.load(), 4) << "round " << round;
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.run(10, [&counter](size_t, ThreadPool::Runner) {
      counter.fetch_add(1);
    });
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.run(20, [&counter](size_t, ThreadPool::Runner) {
      counter.fetch_add(1);
    });
  }  // destructor must join without deadlock
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, DestructorJoinsHelpersThatNeverRan) {
  ThreadPool pool(4);
  pool.run(1, [](size_t, ThreadPool::Runner) {});  // wakes no helper
}

}  // namespace
}  // namespace loglens
