// Fork-join pool the streaming engine runs a micro-batch's partitions on.
//
// The calling thread is one of the workers. `run(n, body)` lets the caller
// and up to `size()` helper threads claim the indices 0..n-1 from one shared
// counter, and returns once every claimed index has finished. The caller
// wakes at most min(n - 1, size()) helpers, so a single index — or a pool
// with no helpers — runs entirely on the caller and wakes nobody.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace loglens {

class ThreadPool {
 public:
  // Which thread ran an index.
  enum class Runner { kCaller, kHelper };

  // Starts `helpers` helper threads; 0 makes every run serial on the caller.
  explicit ThreadPool(size_t helpers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Calls body(i, runner) exactly once for every i in [0, n) and returns
  // when all of them have finished. The caller claims indices from the same
  // counter as the helpers it woke, so with no helper awake every index
  // runs on the caller, in order. `body` must not throw. One run at a time:
  // the engine serializes its callers under run_mu_.
  template <typename Body>
  void run(size_t n, Body&& body) LOGLENS_EXCLUDES(mu_) {
    using B = std::remove_reference_t<Body>;
    run_erased(n, const_cast<void*>(static_cast<const void*>(&body)),
               [](void* b, size_t i, Runner r) {
                 (*static_cast<B*>(b))(i, r);
               });
  }

  size_t size() const { return helpers_.size(); }

 private:
  using Invoke = void (*)(void* body, size_t index, Runner runner);

  void run_erased(size_t n, void* body, Invoke invoke) LOGLENS_EXCLUDES(mu_);
  // Claims and runs indices of the current run until none is left.
  void claim_and_run(Runner runner) LOGLENS_EXCLUDES(mu_);
  void helper_loop() LOGLENS_EXCLUDES(mu_);

  // The engine runs while holding run_mu_ (kEngineRun), so the pool ranks
  // inside it. Bodies run with no pool lock held.
  RankedMutex mu_{lock_rank::kThreadPool};
  std::condition_variable_any work_cv_;  // a new run, or stop
  std::condition_variable_any done_cv_;  // the last claimed index finished
  // The current run. A helper reads the body only together with a claim,
  // so one that wakes after every index was claimed never touches it.
  void* body_ LOGLENS_GUARDED_BY(mu_) = nullptr;
  Invoke invoke_ LOGLENS_GUARDED_BY(mu_) = nullptr;
  size_t n_ LOGLENS_GUARDED_BY(mu_) = 0;
  size_t next_ LOGLENS_GUARDED_BY(mu_) = 0;     // next index to claim
  size_t running_ LOGLENS_GUARDED_BY(mu_) = 0;  // claimed, not finished
  uint64_t generation_ LOGLENS_GUARDED_BY(mu_) = 0;  // runs that woke helpers
  bool stop_ LOGLENS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_;
};

}  // namespace loglens
