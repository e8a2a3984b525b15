#include "streaming/thread_pool.h"

#include <algorithm>
#include <string>

#include "common/sched.h"

namespace loglens {

ThreadPool::ThreadPool(size_t helpers) {
  helpers_.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    helpers_.emplace_back(sched::spawn_named("pool-" + std::to_string(i),
                                             [this] { helper_loop(); }));
  }
}

ThreadPool::~ThreadPool() {
  {
    RankedMutexLock lock(mu_);
    stop_ = true;
  }
  sched::cv_notify_all(work_cv_);
  // The joins block for real; under a ScheduleController the helpers still
  // need to be scheduled to observe stop_, so step outside its view.
  sched::BlockingRegion joining;
  for (auto& h : helpers_) h.join();
}

// The waits below use explicit loops rather than the predicate overload:
// the thread-safety analysis checks a predicate lambda as a separate
// function, where the guarded reads would not see the lock held here.

void ThreadPool::run_erased(size_t n, void* body, Invoke invoke) {
  if (n == 0) return;
  const size_t wake = std::min(n - 1, helpers_.size());
  {
    RankedMutexLock lock(mu_);
    body_ = body;
    invoke_ = invoke;
    n_ = n;
    next_ = 0;
    if (wake > 0) ++generation_;
  }
  if (wake > 0 && wake == helpers_.size()) {
    sched::cv_notify_all(work_cv_);
  } else {
    for (size_t i = 0; i < wake; ++i) sched::cv_notify_one(work_cv_);
  }
  claim_and_run(Runner::kCaller);
  // Every index is claimed; wait only for the helpers still running one.
  RankedMutexLock lock(mu_);
  while (running_ > 0) sched::cv_wait(done_cv_, lock);
}

void ThreadPool::claim_and_run(Runner runner) {
  bool ran = false;
  while (true) {
    size_t index = 0;
    void* body = nullptr;
    Invoke invoke = nullptr;
    {
      RankedMutexLock lock(mu_);
      if (ran && --running_ == 0 && next_ >= n_) {
        sched::cv_notify_all(done_cv_);
      }
      if (next_ >= n_) return;
      index = next_++;
      ++running_;
      body = body_;
      invoke = invoke_;
    }
    LOGLENS_SCHED_POINT("pool.claimed");
    invoke(body, index, runner);
    ran = true;
  }
}

void ThreadPool::helper_loop() {
  uint64_t seen = 0;
  while (true) {
    {
      RankedMutexLock lock(mu_);
      while (!stop_ && generation_ == seen) sched::cv_wait(work_cv_, lock);
      if (stop_) return;
      seen = generation_;
    }
    claim_and_run(Runner::kHelper);
  }
}

}  // namespace loglens
