// Rebroadcastable broadcast variables (Section V-A).
//
// Spark broadcast variables are immutable: updating a model normally means
// restarting the job, losing all keyed state. LogLens instead *rebroadcasts*:
// the driver swaps the value and invalidates every worker's locally cached
// copy, so the next getValue() on a worker misses its cache and pulls the
// fresh value from the driver — while the job (and its state) keeps running.
//
// We reproduce the same protocol: a Broadcast<T> holds an immutable,
// shared driver-side value with a version counter and one cache slot per
// partition. `value(p)` is the worker-side getValue(): it serves the cached
// pointer when the version still matches and performs a "pull" (counted in
// stats) otherwise. `update()` is the driver-side rebroadcast, a pointer
// swap whatever the value's size; the StreamEngine applies it between
// micro-batches under the control lock, so a batch never observes two model
// versions. The broadcast's identity (`id()`) is stable across updates,
// mirroring the paper's "maintain the same ID for the updated BV".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/lock_rank.h"
#include "common/sched.h"
#include "common/thread_annotations.h"

namespace loglens {

template <typename T>
class Broadcast {
 public:
  Broadcast(uint64_t id, T value, size_t num_partitions)
      : id_(id),
        driver_value_(std::make_shared<const T>(std::move(value))),
        caches_(num_partitions) {}

  uint64_t id() const { return id_; }

  // Worker-side getValue() for one partition. Returns the partition's cached
  // pointer on version match; otherwise pulls from the driver and re-caches.
  // The cache and driver locks are never nested (the first cache probe is
  // released before the driver pull) — the distinct kBroadcastDriver /
  // kBroadcastCache ranks verify that stays true.
  std::shared_ptr<const T> value(size_t partition)
      LOGLENS_EXCLUDES(driver_mu_) {
    Cache& c = caches_[partition];
    LOGLENS_SCHED_POINT("broadcast.version_probe");
    const uint64_t current = version_.load(std::memory_order_acquire);
    {
      RankedMutexLock lock(c.mu);
      if (c.cached != nullptr && c.version == current) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return c.cached;
      }
    }
    std::shared_ptr<const T> fresh;
    uint64_t fresh_version;
    {
      RankedMutexLock lock(driver_mu_);
      fresh = driver_value_;
      fresh_version = version_.load(std::memory_order_acquire);
    }
    pulls_.fetch_add(1, std::memory_order_relaxed);
    LOGLENS_SCHED_POINT("broadcast.pull");
    RankedMutexLock lock(c.mu);
    c.cached = fresh;
    c.version = fresh_version;
    return fresh;
  }

  // Driver-side rebroadcast: swap the value and bump the version, which
  // logically invalidates every partition cache. Call via
  // StreamEngine::enqueue_control so it lands between micro-batches.
  void update(std::shared_ptr<const T> value) LOGLENS_EXCLUDES(driver_mu_) {
    RankedMutexLock lock(driver_mu_);
    driver_value_ = std::move(value);
    LOGLENS_SCHED_POINT("broadcast.update");
    version_.fetch_add(1, std::memory_order_release);
  }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  uint64_t pulls() const { return pulls_.load(std::memory_order_relaxed); }
  uint64_t cache_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  struct Cache {
    RankedMutex mu{lock_rank::kBroadcastCache};
    std::shared_ptr<const T> cached LOGLENS_GUARDED_BY(mu);
    uint64_t version LOGLENS_GUARDED_BY(mu) = 0;
  };

  const uint64_t id_;
  // Taken by control ops running under the engine's control phase, pinning
  // kEngineControl < kBroadcastDriver.
  RankedMutex driver_mu_{lock_rank::kBroadcastDriver};
  std::shared_ptr<const T> driver_value_ LOGLENS_GUARDED_BY(driver_mu_);
  std::atomic<uint64_t> version_{0};
  std::vector<Cache> caches_;
  std::atomic<uint64_t> pulls_{0};
  std::atomic<uint64_t> hits_{0};
};

}  // namespace loglens
