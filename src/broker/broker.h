// In-process message broker — the Kafka substitute.
//
// LogLens uses Kafka "for shipping logs and communicating among different
// components" (Section II-B): agents publish raw logs, the log manager and
// parser consume them, and control messages (model instructions, heartbeats)
// ride a tagged channel. This broker reproduces the delivery semantics those
// components rely on: named topics, a fixed partition count per topic,
// strictly ordered append-only partitions, offset-based consumption, and
// blocking polls with timeouts. Everything is in-process and thread-safe.
//
// Hot-path layout: the topic map is guarded by a registry mutex (kBroker)
// that appends and fetches touch only to resolve a stable TopicData pointer;
// each partition then carries its own mutex (kBrokerPartition), so producers
// and consumers of different partitions never contend; a `fetch` crosses
// one partition lock once, and a `produce_batch` once per run of messages
// bound for the same partition. Blocking reads park on a broker-wide
// condition variable (kBrokerWait) that producers only signal when a waiter
// is registered — the uncontended produce pays one relaxed atomic load for
// it. Partition end offsets are additionally published as atomics so lag
// monitors read them without any lock.
//
// Retention: a partition log is a run of fixed-size chunks (kChunkMessages
// messages each) that never move. Every Consumer registers a RetentionHold
// on its topic, and callers may add more as pins. A partition's low-water
// mark is the first offset it still stores: the smallest offset any hold
// keeps, rounded down to a chunk boundary. Every whole chunk below it is
// freed as soon as the last hold moves past it. A topic without holds
// keeps everything. Offsets stay absolute: end offsets, lag and seq stamps
// never shift; a fetch below the mark returns nothing and is counted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "broker/message.h"
#include "common/hash.h"
#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {

class RetentionHold;

class Broker {
 public:
  // Messages per partition-log chunk, the unit the broker frees.
  static constexpr uint64_t kChunkMessages = 4096;

  // `metrics`: where produce/fetch rates are reported (nullptr -> global).
  // `faults`: optional injector consulted at kFaultSiteProduce /
  // kFaultSiteFetch (nullptr -> no injection, no overhead).
  explicit Broker(MetricsRegistry* metrics = nullptr,
                  FaultInjector* faults = nullptr)
      : metrics_(&registry_or_global(metrics)), faults_(faults) {}
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // Creates `topic` with `partitions` partitions; idempotent when the
  // partition count matches, an error otherwise.
  Status create_topic(const std::string& topic, size_t partitions = 1)
      LOGLENS_EXCLUDES(mu_);

  // Appends to the partition chosen by hash(key). Creating on demand with 1
  // partition keeps simple pipelines simple. A message arriving without a
  // seq is stamped with its partition append offset; a message that already
  // carries one keeps it (that is how a record's identity survives stage
  // re-publication).
  //
  // Injected produce faults are absorbed here with a capped-backoff retry
  // loop — like a Kafka client's producer retries — so the dozens of
  // producer call sites stay oblivious. Only an exhausted retry budget
  // surfaces as an error Status.
  Status produce(const std::string& topic, Message message)
      LOGLENS_EXCLUDES(mu_);

  // Batch append: routes every message exactly like produce() (key hash,
  // seq stamping, trace stamping, per-message fault retries) but locks a
  // partition once per run of consecutive messages bound for it instead of
  // once per message — once per call on a single-partition topic. Messages
  // whose produce-fault retry budget is spent are moved into `*failed`
  // (appended; never silently dropped) when it is non-null, and the Status
  // reports how many failed. Delivery order within a partition follows
  // batch order.
  Status produce_batch(const std::string& topic, std::vector<Message> batch,
                       std::vector<Message>* failed = nullptr)
      LOGLENS_EXCLUDES(mu_);

  // Copies up to `max` messages from [offset, ...) of a partition. Returns
  // fewer (possibly zero) when the partition is short, and nothing when
  // `offset` lies below the partition's low-water mark (those messages are
  // freed; loglens_broker_fetch_below_horizon_total counts such fetches).
  // Injected fetch faults
  // surface as a delay (broker stall) or an empty result (transient fetch
  // error; offsets are caller-held, so the caller's next poll retries) —
  // never an exception. Only the one partition's mutex is taken.
  std::vector<Message> fetch(const std::string& topic, size_t partition,
                             uint64_t offset, size_t max) const
      LOGLENS_EXCLUDES(mu_);

  // Blocks until at least one message is available past `offset` or
  // `timeout_ms` elapses.
  std::vector<Message> fetch_blocking(const std::string& topic,
                                      size_t partition, uint64_t offset,
                                      size_t max, int64_t timeout_ms) const
      LOGLENS_EXCLUDES(mu_);

  // Blocks until any partition p of `topic` has end_offset > offsets[p]
  // (true), or `timeout_ms` elapses (false). Partitions beyond the offsets
  // vector count as offset 0; a topic that does not exist yet simply waits
  // (its first produce wakes the waiter). This is the condition-variable
  // wakeup the prefetching Consumer parks on instead of sleep-polling.
  bool wait_for_data(const std::string& topic,
                     const std::vector<uint64_t>& offsets,
                     int64_t timeout_ms) const LOGLENS_EXCLUDES(mu_);

  size_t partition_count(const std::string& topic) const LOGLENS_EXCLUDES(mu_);
  uint64_t end_offset(const std::string& topic, size_t partition) const
      LOGLENS_EXCLUDES(mu_);
  // The first offset the partition still stores (see "Retention" above); 0
  // for an unknown topic or partition.
  uint64_t low_water(const std::string& topic, size_t partition) const
      LOGLENS_EXCLUDES(mu_);
  std::vector<std::string> topics() const LOGLENS_EXCLUDES(mu_);

 private:
  friend class RetentionHold;

  // A chunk is reserved to kChunkMessages when it is created, so appends
  // never reallocate it.
  using Chunk = std::vector<Message>;

  // One partition: an append-only ordered log under its own lock. The end
  // offset and the low-water mark are mirrored in atomics (published after
  // the change, under the lock) so monitors and blocked waiters read
  // progress without taking it. chunks.front() starts at offset `low`.
  struct Partition {
    mutable RankedMutex mu{lock_rank::kBrokerPartition};
    std::deque<Chunk> chunks LOGLENS_GUARDED_BY(mu);
    std::atomic<uint64_t> end{0};
    std::atomic<uint64_t> low{0};
  };

  struct TopicData {
    // Fixed at creation; unique_ptr slots keep Partition addresses stable,
    // so callers may hold a Partition* after releasing mu_.
    std::vector<std::unique_ptr<Partition>> partitions;
    // Per-topic rate counters, resolved once at topic creation.
    Counter* produced = nullptr;
    Counter* fetched = nullptr;
    Counter* batch_produces = nullptr;
    // Retention: messages stored (end minus low-water, over partitions),
    // the lowest partition low-water mark, messages freed, and fetches
    // refused below the mark.
    Gauge* retained = nullptr;
    Gauge* low_water = nullptr;
    Counter* freed = nullptr;
    Counter* fetch_below_horizon = nullptr;
  };

  // Every hold registered on one topic: each entry is a hold's next-read
  // offset per partition, where a partition past the entry's size counts
  // as held at 0. Low-water marks only move under `mu`, which a hold takes
  // to register, commit, move and leave. Kept apart from TopicData because
  // a consumer may register before its topic is created.
  struct TopicHolds {
    mutable RankedMutex mu{lock_rank::kBrokerRetention};
    std::list<std::vector<uint64_t>> holds LOGLENS_GUARDED_BY(mu);
  };

  TopicData& topic_data_locked(const std::string& topic, size_t partitions)
      LOGLENS_REQUIRES(mu_);
  // Resolves (creating on demand) the topic and returns a stable pointer;
  // topics are never deleted, so the pointer outlives the lock.
  TopicData* resolve_topic(const std::string& topic, size_t partitions)
      LOGLENS_EXCLUDES(mu_);
  // Resolve without creating: nullptr when the topic does not exist.
  const TopicData* find_topic(const std::string& topic) const
      LOGLENS_EXCLUDES(mu_);
  TopicData* find_topic(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // The hold registry of `topic`, created on first use; entries are never
  // erased, so the reference outlives the lock.
  TopicHolds& topic_holds(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // Raises partition `p`'s low-water mark as far as `holds` allow (never
  // past its end) and moves the chunks below it into `*freed`, so the
  // caller destroys them after releasing every broker lock. No-op when
  // `holds` is empty: a topic nobody reads keeps everything.
  static void release_chunks(TopicData& data, size_t p,
                             const std::list<std::vector<uint64_t>>& holds,
                             std::vector<Chunk>* freed);
  // Copies [offset, offset+max) of one partition under that partition's
  // lock only, bumping the topic fetch counter.
  static std::vector<Message> copy_out(const TopicData& data, size_t partition,
                                       uint64_t offset, size_t max);
  // The one append step behind produce and produce_batch: moves each
  // message onto the partition its key hashes to, stamping a missing seq
  // with the append offset, and publishes each touched partition's end
  // offset. Consecutive messages bound for one partition share one lock.
  static void append(TopicData& data, std::span<Message> batch);
  // Runs the client-style produce retry loop against the produce fault
  // site; false when the retry budget is exhausted (message undeliverable).
  bool produce_fault_retries(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // Stamps trace identity at the pipeline edge (no-op when tracing is off).
  static void stamp_trace(Message& message);
  // Wakes blocked waiters iff any are registered (one relaxed load when
  // none are).
  void notify_waiters() const LOGLENS_EXCLUDES(wait_mu_);
  // Consults the fetch fault site; true when this fetch should fail empty.
  // Runs before any lock is taken (the injected delay must not stall the
  // broker).
  bool fetch_fault(const std::string& topic) const;

  MetricsRegistry* metrics_;
  FaultInjector* faults_ = nullptr;
  // Topic registry only: held to find/create topics and resolve partition
  // pointers, never across an append or a copy-out. Consumers (kConsumer)
  // resolve topics while holding their own lock, and topic creation
  // registers metrics (kMetrics) under this one — hence
  // kConsumer < kBroker < kMetrics.
  mutable RankedMutex mu_{lock_rank::kBroker};
  std::map<std::string, TopicData> topics_ LOGLENS_GUARDED_BY(mu_);
  std::map<std::string, TopicHolds> holds_ LOGLENS_GUARDED_BY(mu_);

  // Blocking-read rendezvous. Waiters register themselves (waiters_), then
  // re-check partition end atomics under wait_mu_; producers take wait_mu_
  // empty-handed (kBrokerWait < kBroker lets a waiter re-resolve topics
  // while registered) and only when waiters_ > 0.
  // _any: the plain std::condition_variable only accepts
  // std::unique_lock<std::mutex>, which the analysis cannot see.
  mutable RankedMutex wait_mu_{lock_rank::kBrokerWait};
  mutable std::condition_variable_any wait_cv_;
  mutable std::atomic<int> waiters_{0};
};

// A registered read position on one topic: while it lives, the broker frees
// no message at or past its offsets (see "Retention" on Broker). Every
// Consumer owns one; LogLensService pins checkpointed offsets with others.
// Thread-safe: the broker serializes every hold of a topic.
class RetentionHold {
 public:
  // Registers at the topic's current low-water marks.
  RetentionHold(Broker& broker, std::string topic);
  ~RetentionHold();
  RetentionHold(const RetentionHold&) = delete;
  RetentionHold& operator=(const RetentionHold&) = delete;

  // Where the hold started: each partition's low-water mark at
  // registration. Empty when the topic did not exist yet, which holds every
  // partition at 0.
  const std::vector<uint64_t>& start() const { return start_; }

  // Commit: moves `partition` forward to `offset` (never back) and frees
  // the whole chunks no hold needs any more.
  void advance(size_t partition, uint64_t offset);

  // Moves the hold to `offsets`, in either direction; a short vector leaves
  // the other partitions where they are. Refused, with nothing moved, when
  // an offset lies below its partition's low-water mark: those messages are
  // gone.
  Status move_to(const std::vector<uint64_t>& offsets);

 private:
  // The topic, once it exists (topics are never deleted, so the pointer is
  // cached after the first successful lookup).
  Broker::TopicData* topic_data();

  Broker& broker_;
  std::string topic_;
  std::atomic<Broker::TopicData*> data_{nullptr};
  Broker::TopicHolds& holds_;
  std::list<std::vector<uint64_t>>::iterator self_;
  std::vector<uint64_t> start_;
};

// A stateful reader tracking its own offsets across all partitions of one
// topic (a single-member consumer group). Thread-safe: the job runner polls
// from its driver thread while monitoring threads read lag()/offsets(), so
// the offset table is guarded by its own (kConsumer-ranked) mutex.
//
// poll_blocking is the backpressure-aware prefetch path: it parks on the
// broker's waiter condition variable (woken by a produce to *any*
// partition, not a timeout sweep) and keeps accumulating until the low
// watermark `min_messages` is reached or the deadline passes — batch
// formation under load, low latency when traffic is thin. The consumer
// never buffers internally, so `max` is the high watermark on memory it
// holds per poll. When constructed with a registry it exports
// `loglens_consumer_queue_depth{topic=...}` (lag after each poll) and
// offset-commit counters (one commit per non-empty poll — batched, not
// per-message). Its RetentionHold follows the offsets: a new consumer starts
// at the topic's low-water marks, each poll's commit lets the broker free
// what every reader has passed, and destruction releases the hold.
class Consumer {
 public:
  Consumer(Broker& broker, std::string topic,
           MetricsRegistry* metrics = nullptr);

  // Round-robins over partitions, advancing offsets; returns up to `max`
  // messages (empty when caught up). Offsets advance once per poll under a
  // single critical section — the batched offset commit.
  std::vector<Message> poll(size_t max) LOGLENS_EXCLUDES(mu_);
  std::vector<Message> poll_blocking(size_t max, int64_t timeout_ms,
                                     size_t min_messages = 1)
      LOGLENS_EXCLUDES(mu_);

  // Total messages consumed so far.
  uint64_t consumed() const LOGLENS_EXCLUDES(mu_);
  // True when every partition is fully consumed *right now*.
  bool caught_up() const LOGLENS_EXCLUDES(mu_);
  // Messages currently buffered past this consumer's offsets (queue depth).
  uint64_t lag() const LOGLENS_EXCLUDES(mu_);

  // Offset checkpointing: the per-partition next-read offsets (a snapshot —
  // by value, since the table may grow concurrently), and a seek that
  // rewinds (or forwards) them. A consumer seeked to offsets saved before a
  // crash redelivers everything after that point, in order — at-least-once
  // replay (see docs/FAULTS.md). A short vector leaves the remaining
  // partitions untouched. A seek below a partition's low-water mark is
  // refused and moves nothing: those messages are freed.
  std::vector<uint64_t> offsets() const LOGLENS_EXCLUDES(mu_);
  Status seek(const std::vector<uint64_t>& offsets) LOGLENS_EXCLUDES(mu_);

 private:
  // Re-reads lag and updates the queue-depth gauge (no-op without metrics).
  void update_queue_depth() LOGLENS_EXCLUDES(mu_);

  Broker& broker_;
  std::string topic_;
  RetentionHold hold_;
  // Held while fetching (kConsumer < kBroker) so a poll's
  // read-fetch-advance is atomic against seeks and lag reads.
  mutable RankedMutex mu_{lock_rank::kConsumer};
  std::vector<uint64_t> offsets_ LOGLENS_GUARDED_BY(mu_);
  uint64_t consumed_ LOGLENS_GUARDED_BY(mu_) = 0;
  // Optional observability (resolved once at construction).
  Gauge* queue_depth_ = nullptr;
  Counter* commits_total_ = nullptr;
  Counter* committed_records_total_ = nullptr;
};

}  // namespace loglens
