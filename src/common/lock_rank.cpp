#include "common/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace loglens {
namespace lock_rank {

namespace {

// One fixed slot per known rank plus a catch-all for ad-hoc test ranks.
// Slots are plain atomics so the contended path stays allocation- and
// lock-free (a contended acquisition is exactly where taking another lock
// would distort the measurement).
struct Slot {
  int rank;
  const char* name;
  std::atomic<uint64_t> contended{0};
  std::atomic<uint64_t> wait_us_total{0};
  std::atomic<uint64_t> wait_us_max{0};
};

Slot g_slots[] = {
    {kServiceRecover, "kServiceRecover"},
    {kEngineRun, "kEngineRun"},
    {kEngineControl, "kEngineControl"},
    {kBroadcastDriver, "kBroadcastDriver"},
    {kBroadcastCache, "kBroadcastCache"},
    {kThreadPool, "kThreadPool"},
    {kConsumer, "kConsumer"},
    {kBrokerWait, "kBrokerWait"},
    {kBroker, "kBroker"},
    {kBrokerRetention, "kBrokerRetention"},
    {kBrokerPartition, "kBrokerPartition"},
    {kStorageFlush, "kStorageFlush"},
    {kFaults, "kFaults"},
    {kStorage, "kStorage"},
    {kJobState, "kJobState"},
    {kMetrics, "kMetrics"},
    {kTrace, "kTrace"},
    {-1, "other"},  // must stay last: record_contention falls through to it
};

constexpr int kSlotCount = sizeof(g_slots) / sizeof(g_slots[0]);

Slot& slot_for(int rank) {
  for (int i = 0; i < kSlotCount - 1; ++i) {
    if (g_slots[i].rank == rank) return g_slots[i];
  }
  return g_slots[kSlotCount - 1];
}

}  // namespace

std::vector<ContentionStat> contention_profile() {
  std::vector<ContentionStat> out;
  for (Slot& slot : g_slots) {
    const uint64_t contended = slot.contended.load(std::memory_order_relaxed);
    if (contended == 0) continue;
    ContentionStat stat;
    stat.rank = slot.rank;
    stat.name = slot.name;
    stat.contended = contended;
    stat.wait_us_total = slot.wait_us_total.load(std::memory_order_relaxed);
    stat.wait_us_max = slot.wait_us_max.load(std::memory_order_relaxed);
    out.push_back(stat);
  }
  return out;
}

void contention_reset() {
  for (Slot& slot : g_slots) {
    slot.contended.store(0, std::memory_order_relaxed);
    slot.wait_us_total.store(0, std::memory_order_relaxed);
    slot.wait_us_max.store(0, std::memory_order_relaxed);
  }
}

const char* rank_name(int rank) { return slot_for(rank).name; }

namespace internal {

void record_contention(int rank, uint64_t wait_us) {
  Slot& slot = slot_for(rank);
  slot.contended.fetch_add(1, std::memory_order_relaxed);
  slot.wait_us_total.fetch_add(wait_us, std::memory_order_relaxed);
  uint64_t seen = slot.wait_us_max.load(std::memory_order_relaxed);
  while (seen < wait_us && !slot.wait_us_max.compare_exchange_weak(
                               seen, wait_us, std::memory_order_relaxed)) {
  }
}

// The messages name both ranks so the failing nesting is identifiable from
// the abort line alone; docs/STATIC_ANALYSIS.md maps ranks back to mutexes.

void rank_violation_abort(int acquiring, int held) {
  std::fprintf(stderr,
               "loglens lock rank violation: acquiring rank %d while holding "
               "rank %d (acquire order must be strictly increasing)\n",
               acquiring, held);
  std::abort();
}

void rank_overflow_abort(int acquiring) {
  std::fprintf(stderr,
               "loglens lock rank overflow: acquiring rank %d with %d locks "
               "already held\n",
               acquiring, 16);
  std::abort();
}

void rank_release_abort(int releasing) {
  std::fprintf(stderr,
               "loglens lock rank error: releasing rank %d that this thread "
               "does not hold\n",
               releasing);
  std::abort();
}

}  // namespace internal
}  // namespace lock_rank
}  // namespace loglens
