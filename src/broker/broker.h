// In-process message broker — the Kafka substitute.
//
// LogLens uses Kafka "for shipping logs and communicating among different
// components" (Section II-B): agents publish raw logs, the log manager and
// parser consume them, and control messages (model instructions, heartbeats)
// ride a tagged channel. This broker reproduces the delivery semantics those
// components rely on: named topics, each one strictly ordered append-only
// log, offset-based consumption, and blocking polls with timeouts. The
// parallelism lives in the StreamEngine's partitions, not here. Everything is
// in-process and thread-safe.
//
// Hot-path layout: the topic map is guarded by a registry mutex (kBroker)
// that appends and fetches touch only to resolve a stable TopicData pointer
// (a Consumer caches it, so its polls skip the registry); each topic's log
// then carries its own mutex (kBrokerPartition), so readers and writers of
// different topics never contend. A `fetch` and a `produce_batch` cross the
// log's lock once. Blocking reads park on a broker-wide condition variable
// (kBrokerWait) that producers only signal when a waiter is registered —
// the uncontended produce pays one relaxed atomic load for it. End offsets
// are additionally published as atomics so lag monitors read them without
// any lock.
//
// Retention: a topic's log is a run of fixed-size chunks (kChunkMessages
// messages each) that never move. Every Consumer registers a RetentionHold
// on its topic, and callers may add more as pins. A topic's low-water mark
// is the first offset it still stores: the smallest offset any hold keeps,
// rounded down to a chunk boundary. Every whole chunk below it is freed as
// soon as the last hold moves past it. A topic without holds keeps
// everything. Offsets stay absolute: end offsets, lag and seq stamps never
// shift; a fetch below the mark returns nothing and is counted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "broker/message.h"
#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {

class RetentionHold;
class Consumer;

class Broker {
 public:
  // Messages per log chunk, the unit the broker frees.
  static constexpr uint64_t kChunkMessages = 4096;

  // `metrics`: where produce/fetch rates are reported (nullptr -> global).
  // `faults`: optional injector consulted at kFaultSiteProduce /
  // kFaultSiteFetch (nullptr -> no injection, no overhead).
  explicit Broker(MetricsRegistry* metrics = nullptr,
                  FaultInjector* faults = nullptr)
      : metrics_(&registry_or_global(metrics)), faults_(faults) {}
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // Creates `topic`; idempotent. Any `partitions` but 1 is refused; ROADMAP
  // item 4 deletes the parameter along with perfbench's TracedPipeline.
  Status create_topic(const std::string& topic, size_t partitions = 1)
      LOGLENS_EXCLUDES(mu_);

  // Appends to the topic's log, creating the topic on demand. A message
  // arriving without a seq is stamped with its append offset; a message that
  // already carries one keeps it (that is how a record's identity survives
  // stage re-publication).
  //
  // Injected produce faults are absorbed here with a capped-backoff retry
  // loop — like a Kafka client's producer retries — so the dozens of
  // producer call sites stay oblivious. Only an exhausted retry budget
  // surfaces as an error Status.
  Status produce(const std::string& topic, Message message)
      LOGLENS_EXCLUDES(mu_);

  // Batch append: treats every message exactly like produce() (seq
  // stamping, trace stamping, per-message fault retries) but locks the log
  // once per call instead of once per message. Messages whose produce-fault
  // retry budget is spent are moved into `*failed` (appended; never silently
  // dropped) when it is non-null, and the Status reports how many failed.
  // Delivery order follows batch order.
  Status produce_batch(const std::string& topic, std::vector<Message> batch,
                       std::vector<Message>* failed = nullptr)
      LOGLENS_EXCLUDES(mu_);

  // Copies up to `max` messages from [offset, ...) of the topic. Returns
  // fewer (possibly zero) when the log is short, and nothing when `offset`
  // lies below the low-water mark (those messages are freed;
  // loglens_broker_fetch_below_horizon_total counts such fetches). Injected
  // fetch faults surface as a delay (broker stall) or an empty result
  // (transient fetch error; offsets are caller-held, so the caller's next
  // poll retries) — never an exception. Only the log's mutex is taken.
  std::vector<Message> fetch(const std::string& topic, uint64_t offset,
                             size_t max) const LOGLENS_EXCLUDES(mu_);

  // Blocks until `topic`'s end offset exceeds `offset` (true), or
  // `timeout_ms` elapses (false). A topic that does not exist yet simply
  // waits (its first produce wakes the waiter). This is the
  // condition-variable wakeup the prefetching Consumer parks on instead of
  // sleep-polling.
  bool wait_for_data(const std::string& topic, uint64_t offset,
                     int64_t timeout_ms) const LOGLENS_EXCLUDES(mu_);

  // 1 for an existing topic, 0 otherwise; ROADMAP item 4 deletes it along
  // with perfbench's TracedPipeline.
  size_t partition_count(const std::string& topic) const LOGLENS_EXCLUDES(mu_);
  // 0 for an unknown topic, and for any `partition` but 0; ROADMAP item 4
  // deletes the parameter along with perfbench's TracedPipeline.
  uint64_t end_offset(const std::string& topic, size_t partition = 0) const
      LOGLENS_EXCLUDES(mu_);
  // The first offset the topic still stores (see "Retention" above); 0 for
  // an unknown topic.
  uint64_t low_water(const std::string& topic) const LOGLENS_EXCLUDES(mu_);
  std::vector<std::string> topics() const LOGLENS_EXCLUDES(mu_);

 private:
  friend class RetentionHold;
  friend class Consumer;

  // A chunk is reserved to kChunkMessages when it is created, so appends
  // never reallocate it.
  using Chunk = std::vector<Message>;

  // One topic: an append-only ordered log under its own lock. The end offset
  // and the low-water mark are mirrored in atomics (published after the
  // change, under the lock) so monitors and blocked waiters read progress
  // without taking it. chunks.front() starts at offset `low`. Map nodes keep
  // the address stable, so callers may hold a TopicData* after releasing
  // mu_.
  struct TopicData {
    mutable RankedMutex mu{lock_rank::kBrokerPartition};
    std::deque<Chunk> chunks LOGLENS_GUARDED_BY(mu);
    std::atomic<uint64_t> end{0};
    std::atomic<uint64_t> low{0};
    // Per-topic rate counters, resolved once at topic creation.
    Counter* produced = nullptr;
    Counter* fetched = nullptr;
    Counter* batch_produces = nullptr;
    // Retention: messages stored (end minus low-water), the low-water mark,
    // messages freed, and fetches refused below the mark.
    Gauge* retained = nullptr;
    Gauge* low_water = nullptr;
    Counter* freed = nullptr;
    Counter* fetch_below_horizon = nullptr;
  };

  // Every hold registered on one topic: each entry is a hold's next-read
  // offset. The low-water mark only moves under `mu`, which a hold takes to
  // register, commit, move and leave. Kept apart from TopicData because a
  // consumer may register before its topic is created.
  struct TopicHolds {
    mutable RankedMutex mu{lock_rank::kBrokerRetention};
    std::list<uint64_t> holds LOGLENS_GUARDED_BY(mu);
  };

  // Resolves (creating on demand) the topic and returns a stable pointer;
  // topics are never deleted, so the pointer outlives the lock.
  TopicData* resolve_topic(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // Resolve without creating: nullptr when the topic does not exist.
  const TopicData* find_topic(const std::string& topic) const
      LOGLENS_EXCLUDES(mu_);
  TopicData* find_topic(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // The hold registry of `topic`, created on first use; entries are never
  // erased, so the reference outlives the lock.
  TopicHolds& topic_holds(const std::string& topic) LOGLENS_EXCLUDES(mu_);
  // Raises the topic's low-water mark as far as `holds` allow (never past
  // its end) and moves the chunks below it into `*freed`, so the caller
  // destroys them after releasing every broker lock. No-op when `holds` is
  // empty: a topic nobody reads keeps everything.
  static void release_chunks(TopicData& data, const std::list<uint64_t>& holds,
                             std::vector<Chunk>* freed);
  // Copies [offset, offset+max) of the log under its lock only, bumping the
  // topic fetch counter.
  static std::vector<Message> copy_out(const TopicData& data, uint64_t offset,
                                       size_t max);
  // The one append step behind produce and produce_batch: moves the batch
  // onto the log under one lock, stamping a missing seq with the append
  // offset, and publishes the end offset.
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
  // Topic registry only: held to find/create topics, never across an append
  // or a copy-out. Consumers (kConsumer) resolve topics while holding their
  // own lock, and topic creation registers metrics (kMetrics) under this one
  // — hence kConsumer < kBroker < kMetrics.
  mutable RankedMutex mu_{lock_rank::kBroker};
  std::map<std::string, TopicData> topics_ LOGLENS_GUARDED_BY(mu_);
  std::map<std::string, TopicHolds> holds_ LOGLENS_GUARDED_BY(mu_);

  // Blocking-read rendezvous. Waiters register themselves (waiters_), then
  // re-check the end atomic under wait_mu_; producers take wait_mu_
  // empty-handed (kBrokerWait < kBroker lets a waiter resolve its topic
  // while registered) and only when waiters_ > 0.
  // _any: the plain std::condition_variable only accepts
  // std::unique_lock<std::mutex>, which the analysis cannot see.
  mutable RankedMutex wait_mu_{lock_rank::kBrokerWait};
  mutable std::condition_variable_any wait_cv_;
  mutable std::atomic<int> waiters_{0};
};

// A registered read position on one topic: while it lives, the broker frees
// no message at or past its offset (see "Retention" on Broker). Every
// Consumer owns one; LogLensService pins checkpointed offsets with others.
// Thread-safe: the broker serializes every hold of a topic.
class RetentionHold {
 public:
  // Registers at the topic's current low-water mark.
  RetentionHold(Broker& broker, std::string topic);
  ~RetentionHold();
  RetentionHold(const RetentionHold&) = delete;
  RetentionHold& operator=(const RetentionHold&) = delete;

  // Where the hold started: the low-water mark at registration, 0 when the
  // topic did not exist yet.
  uint64_t start() const { return start_; }

  // Commit: moves the hold forward to `offset` (never back) and frees the
  // whole chunks no hold needs any more.
  void advance(uint64_t offset);

  // Moves the hold to `offset`, in either direction. Refused, with nothing
  // moved, when `offset` lies below the low-water mark: those messages are
  // gone.
  Status move_to(uint64_t offset);

 private:
  friend class Consumer;

  // The topic, once it exists (topics are never deleted, so the pointer is
  // cached after the first successful lookup).
  Broker::TopicData* topic_data() const;

  Broker& broker_;
  std::string topic_;
  mutable std::atomic<Broker::TopicData*> data_{nullptr};
  Broker::TopicHolds& holds_;
  std::list<uint64_t>::iterator self_;
  uint64_t start_ = 0;
};

// A stateful reader tracking its own offset on one topic (a single-member
// consumer group). Thread-safe: the job runner polls from its driver thread
// while monitoring threads read lag()/offset(), so the offset is guarded by
// its own (kConsumer-ranked) mutex. The topic is resolved through the hold,
// once it exists, so polls and lag reads never take the broker's registry
// lock.
//
// poll_blocking is the prefetch path: when nothing is buffered it parks on
// the broker's waiter condition variable (woken by a produce, not a timeout
// sweep) until a message arrives or the deadline passes. The consumer never
// buffers internally, so `max` is the high watermark on memory it holds per
// poll. When constructed with a registry it exports
// `loglens_consumer_queue_depth{topic=...}` (lag after each poll) and
// offset-commit counters (one commit per non-empty poll — batched, not
// per-message). Its RetentionHold follows the offset: a new consumer starts
// at the topic's low-water mark, each poll's commit lets the broker free
// what every reader has passed, and destruction releases the hold.
class Consumer {
 public:
  Consumer(Broker& broker, std::string topic,
           MetricsRegistry* metrics = nullptr);

  // Returns up to `max` messages from the offset on, advancing it (empty
  // when caught up). The offset advances once per poll under a single
  // critical section — the batched offset commit.
  std::vector<Message> poll(size_t max) LOGLENS_EXCLUDES(mu_);
  // poll(), parking until a message arrives when none is buffered; empty
  // once `timeout_ms` passes.
  std::vector<Message> poll_blocking(size_t max, int64_t timeout_ms)
      LOGLENS_EXCLUDES(mu_);

  // Total messages consumed so far.
  uint64_t consumed() const LOGLENS_EXCLUDES(mu_);
  // True when the topic is fully consumed *right now*.
  bool caught_up() const LOGLENS_EXCLUDES(mu_);
  // Messages currently buffered past this consumer's offset (queue depth).
  uint64_t lag() const LOGLENS_EXCLUDES(mu_);

  // Offset checkpointing: the next-read offset, and a seek that rewinds (or
  // forwards) it. A consumer seeked to an offset saved before a crash
  // redelivers everything after that point, in order — at-least-once replay
  // (see docs/FAULTS.md). A seek below the low-water mark is refused and
  // moves nothing: those messages are freed.
  uint64_t offset() const LOGLENS_EXCLUDES(mu_);
  Status seek(uint64_t offset) LOGLENS_EXCLUDES(mu_);

 private:
  // Re-reads lag and updates the queue-depth gauge (no-op without metrics).
  void update_queue_depth() LOGLENS_EXCLUDES(mu_);

  Broker& broker_;
  std::string topic_;
  RetentionHold hold_;
  // Held while fetching (kConsumer < kBroker) so a poll's
  // read-fetch-advance is atomic against seeks and lag reads.
  mutable RankedMutex mu_{lock_rank::kConsumer};
  uint64_t offset_ LOGLENS_GUARDED_BY(mu_) = 0;
  uint64_t consumed_ LOGLENS_GUARDED_BY(mu_) = 0;
  // Optional observability (resolved once at construction).
  Gauge* queue_depth_ = nullptr;
  Counter* commits_total_ = nullptr;
  Counter* committed_records_total_ = nullptr;
};

}  // namespace loglens
