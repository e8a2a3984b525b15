// Runtime lock-rank (lock-order) checking for the concurrent core.
//
// The Clang thread-safety analysis (common/thread_annotations.h) proves that
// guarded data is only touched with its own mutex held, but it is
// per-capability: it cannot see that thread A acquires broker-then-metrics
// while thread B acquires metrics-then-broker. Deadlocks of that shape are
// exactly what a *rank* discipline prevents: every mutex in the concurrent
// core carries an explicit rank from the hierarchy below, and a thread may
// only acquire a mutex whose rank is strictly greater than every rank it
// already holds. An acquisition that violates the order aborts immediately
// (in checked builds) with both ranks named — turning a once-in-a-blue-moon
// deadlock into a deterministic unit-test failure.
//
// RankedMutex wraps std::mutex and performs the per-thread bookkeeping in
// lock()/unlock(); RankedMutexLock is the annotated scoped guard the
// concurrent core uses instead of std::lock_guard (which the Clang analysis
// cannot see on libstdc++). Checking is compiled in for Debug and
// ASan/TSan builds and compiles to a plain std::mutex passthrough in
// Release (LOGLENS_LOCK_RANK_CHECKS below) — zero cost on the hot path.
//
// The rank hierarchy (outermost first; see docs/STATIC_ANALYSIS.md for the
// full table with the nestings that pin each value):
//
//   kServiceRecover < kEngineRun < kEngineControl < kBroadcastDriver,
//   kBroadcastCache < kThreadPool < kConsumer < kBrokerWait < kBroker
//   < kBrokerRetention < kBrokerPartition < kStorageFlush < kFaults
//   < kStorage < kJobState < kMetrics < kTrace
//
// Trace is the innermost rank because the metrics registry drains the span
// collector (kTrace) while holding its own mutex (kMetrics), and every
// subsystem may bump a counter while holding its own lock; the service's
// recovery lock is the outermost because recovery drives the whole pipeline
// (engines, broker, stores).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/sched.h"
#include "common/thread_annotations.h"

// LOGLENS_LOCK_RANK_CHECKS: 1 compiles the rank bookkeeping in, 0 makes
// RankedMutex a zero-overhead std::mutex wrapper. Defaults: on for Debug
// (no NDEBUG) and for ASan/TSan instrumented builds, off otherwise. Tests
// override it per-target (tests/CMakeLists.txt) to pin both behaviours.
#ifndef LOGLENS_LOCK_RANK_CHECKS
#if !defined(NDEBUG)
#define LOGLENS_LOCK_RANK_CHECKS 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOGLENS_LOCK_RANK_CHECKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOGLENS_LOCK_RANK_CHECKS 1
#else
#define LOGLENS_LOCK_RANK_CHECKS 0
#endif
#else
#define LOGLENS_LOCK_RANK_CHECKS 0
#endif
#endif

// LOGLENS_MUTEX_PROFILE: 1 makes every contended RankedMutex acquisition
// record a wait-time sample against its rank (lock_rank::contention_profile
// below). Uncontended acquisitions pay one try_lock — nothing else — so the
// profile is cheap enough to leave on wherever rank checks are on, and CI's
// bench-smoke forces it on in Release (-DLOGLENS_MUTEX_PROFILE=ON) so the
// throughput benchmark doubles as a contention census.
#ifndef LOGLENS_MUTEX_PROFILE
#define LOGLENS_MUTEX_PROFILE LOGLENS_LOCK_RANK_CHECKS
#endif

namespace loglens {

namespace lock_rank {

// The lock hierarchy. Gaps leave room for new subsystems; what matters is
// the order, which encodes every legal nesting in the codebase. A thread
// holding rank R may only acquire ranks strictly greater than R.
inline constexpr int kServiceRecover = 100;   // LogLensService::recover_mu_
inline constexpr int kEngineRun = 200;        // StreamEngine::run_mu_
inline constexpr int kEngineControl = 300;    // StreamEngine::control_mu_
inline constexpr int kBroadcastDriver = 400;  // Broadcast<T>::driver_mu_
inline constexpr int kBroadcastCache = 410;   // Broadcast<T>::Cache::mu
inline constexpr int kThreadPool = 500;       // ThreadPool::mu_
inline constexpr int kConsumer = 650;         // Consumer::mu_
// Below kBroker: a blocked waiter resolves the topic (kBroker) each time it
// wakes until the topic exists, so the waiter mutex must be acquirable first.
inline constexpr int kBrokerWait = 690;       // Broker::wait_mu_
inline constexpr int kBroker = 700;           // Broker::mu_ (topic map)
// Above kBroker: a hold resolves its topic before taking the hold registry;
// below kBrokerPartition: raising a low-water mark frees a topic's chunks.
inline constexpr int kBrokerRetention = 705;  // Broker TopicHolds::mu
inline constexpr int kBrokerPartition = 710;  // Broker TopicData::mu (log)
// Below kFaults: the segment writer consults the FaultInjector (and then
// takes kStorage to publish) while holding the flush lock.
inline constexpr int kStorageFlush = 740;     // DocumentStore::flush_mu_,
                                              // LogStore::write_mu_
inline constexpr int kFaults = 750;           // FaultInjector::mu_
inline constexpr int kStorage = 800;  // DocumentStore / LogStore / ModelStore
inline constexpr int kJobState = 850;         // JobRunner::error_mu_
inline constexpr int kMetrics = 900;          // MetricsRegistry::mu_
inline constexpr int kTrace = 950;            // SpanCollector::mu_ (leaf)

// True when this build performs rank checking (tests branch on it).
constexpr bool checks_enabled() { return LOGLENS_LOCK_RANK_CHECKS != 0; }

// True when contended acquisitions record wait-time samples.
constexpr bool profiling_enabled() { return LOGLENS_MUTEX_PROFILE != 0; }

// One row of the contention profile: how often a mutex of this rank was
// contended (lock() found it held) and how long those waits took.
struct ContentionStat {
  int rank = 0;
  const char* name = "";
  uint64_t contended = 0;
  uint64_t wait_us_total = 0;
  uint64_t wait_us_max = 0;
};

// Rows with at least one contended acquisition, outermost rank first.
// Always linkable; empty unless profiling_enabled().
std::vector<ContentionStat> contention_profile();

// Zeroes every contention counter (bench / test isolation).
void contention_reset();

// Human name for a rank constant ("kBroker"), or "other" for unknown ranks.
const char* rank_name(int rank);

namespace internal {

// Out-of-line so the abort path (fprintf + abort) stays off the inlined
// fast path. Defined unconditionally in lock_rank.cpp so every build
// flavor links, whichever way LOGLENS_LOCK_RANK_CHECKS went.
[[noreturn]] void rank_violation_abort(int acquiring, int held);
[[noreturn]] void rank_overflow_abort(int acquiring);
[[noreturn]] void rank_release_abort(int releasing);

// Files one contended-acquisition sample. Out-of-line and unconditionally
// defined (lock_rank.cpp) — only the call site is compiled out when
// profiling is off.
void record_contention(int rank, uint64_t wait_us);

}  // namespace internal

#if LOGLENS_LOCK_RANK_CHECKS

namespace internal {

// Per-thread set of held ranks. A fixed array suffices: the deepest legal
// chain in the hierarchy is far shorter than kMaxHeld, and overflow aborts
// rather than silently dropping checks.
inline constexpr int kMaxHeld = 16;

struct HeldRanks {
  int ranks[kMaxHeld];
  int depth = 0;
};

inline thread_local HeldRanks tls_held;

inline void note_acquire(int rank) {
  HeldRanks& held = tls_held;
  for (int i = 0; i < held.depth; ++i) {
    if (held.ranks[i] >= rank) rank_violation_abort(rank, held.ranks[i]);
  }
  if (held.depth >= kMaxHeld) rank_overflow_abort(rank);
  held.ranks[held.depth++] = rank;
}

inline void note_release(int rank) {
  HeldRanks& held = tls_held;
  // Search newest-first: releases are almost always LIFO, but unique_lock /
  // condition-variable waits may release out of order legally.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  rank_release_abort(rank);
}

}  // namespace internal

// Ranks currently held by the calling thread (test hook).
inline int held_count() { return internal::tls_held.depth; }

#else  // !LOGLENS_LOCK_RANK_CHECKS

inline int held_count() { return 0; }

#endif

}  // namespace lock_rank

// std::mutex with an explicit position in the lock hierarchy. In checked
// builds every acquisition verifies the rank order against the calling
// thread's held set; in release builds lock()/unlock() are plain
// passthroughs. Carries the Clang `capability` attribute so members can be
// LOGLENS_GUARDED_BY it and methods LOGLENS_REQUIRES it.
class LOGLENS_CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(int rank) : rank_(rank) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() LOGLENS_ACQUIRE() {
#if LOGLENS_LOCK_RANK_CHECKS
    lock_rank::internal::note_acquire(rank_);
#endif
#if LOGLENS_SCHED_POINTS
    // Under an attached ScheduleController the acquisition becomes a
    // deterministic scheduling decision: yield, then try_lock/block until
    // the controller runs us with the mutex free (common/sched.h).
    if (sched::ScheduleController* c = sched::active()) {
      sched::internal::mutex_lock(c, mu_, this, rank_);
      return;
    }
#endif
#if LOGLENS_MUTEX_PROFILE
    // Contention probe: an uncontended acquisition is one try_lock; a
    // contended one additionally times the blocking wait.
    if (!mu_.try_lock()) {
      const uint64_t t0 = trace_clock::now_us();
      mu_.lock();
      lock_rank::internal::record_contention(rank_,
                                             trace_clock::now_us() - t0);
    }
#else
    mu_.lock();
#endif
  }

  void unlock() LOGLENS_RELEASE() {
    mu_.unlock();
#if LOGLENS_SCHED_POINTS
    // Readies any thread the controller parked on this mutex.
    if (sched::ScheduleController* c = sched::active()) {
      sched::internal::mutex_unlocked(c, this);
    }
#endif
#if LOGLENS_LOCK_RANK_CHECKS
    lock_rank::internal::note_release(rank_);
#endif
  }

  bool try_lock() LOGLENS_TRY_ACQUIRE(true) {
#if LOGLENS_SCHED_POINTS
    if (sched::ScheduleController* c = sched::active()) {
      if (!sched::internal::mutex_try_lock(c, mu_, this, rank_)) {
        return false;
      }
#if LOGLENS_LOCK_RANK_CHECKS
      lock_rank::internal::note_acquire(rank_);
#endif
      return true;
    }
#endif
    if (!mu_.try_lock()) return false;
#if LOGLENS_LOCK_RANK_CHECKS
    lock_rank::internal::note_acquire(rank_);
#endif
    return true;
  }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const int rank_;
};

// Annotated scoped guard for RankedMutex — the concurrent core's
// std::lock_guard. Also satisfies BasicLockable so it can be handed to
// std::condition_variable_any::wait, which unlocks/relocks it around the
// blocking wait; those two methods are deliberately unannotated (the
// analysis cannot model a wait's release-and-reacquire, and treating the
// lock as continuously held is exactly the post-wait truth).
class LOGLENS_SCOPED_CAPABILITY RankedMutexLock {
 public:
  explicit RankedMutexLock(RankedMutex& mu) LOGLENS_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }

  ~RankedMutexLock() LOGLENS_RELEASE() {
    if (owned_) mu_.unlock();
  }

  RankedMutexLock(const RankedMutexLock&) = delete;
  RankedMutexLock& operator=(const RankedMutexLock&) = delete;

  // For condition_variable_any only — see the class comment.
  void lock() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() {
    owned_ = false;
    mu_.unlock();
  }

 private:
  RankedMutex& mu_;
  bool owned_ = true;
};

}  // namespace loglens
