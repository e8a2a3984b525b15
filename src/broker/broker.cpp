#include "broker/broker.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/clock.h"
#include "common/sched.h"
#include "trace/trace.h"

namespace loglens {

namespace {
// Produce-side retry budget for injected (or, in a networked broker,
// transient) append failures. Capped exponential backoff: 1, 2, 4, 8 ms.
constexpr int kProduceMaxAttempts = 5;
constexpr int64_t kProduceBackoffCapMs = 8;

// Sentinel offset for wait_for_data: no partition can ever exceed it, so an
// entry holding it is effectively unwatched.
constexpr uint64_t kIgnorePartition = std::numeric_limits<uint64_t>::max();

void produce_backoff(int attempt) {
  int64_t ms = std::min<int64_t>(kProduceBackoffCapMs, 1LL << (attempt - 1));
  // Virtual under a ScheduleController / ScopedVirtualDelays: backoff is a
  // schedule point, not a wall-clock stall (common/sched.h).
  sched::sleep_for_ms(static_cast<uint64_t>(ms));
}
}  // namespace

Broker::TopicData& Broker::topic_data_locked(const std::string& topic,
                                             size_t partitions) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    it = topics_.emplace(topic, TopicData{}).first;
    it->second.partitions.reserve(partitions);
    for (size_t p = 0; p < partitions; ++p) {
      it->second.partitions.push_back(std::make_unique<Partition>());
    }
    MetricLabels labels{{"topic", topic}};
    it->second.produced =
        &metrics_->counter("loglens_broker_messages_produced_total", labels,
                           "Messages appended per topic");
    it->second.fetched =
        &metrics_->counter("loglens_broker_messages_fetched_total", labels,
                           "Messages returned by fetches per topic");
    it->second.batch_produces =
        &metrics_->counter("loglens_broker_batch_produces_total", labels,
                           "produce_batch calls that appended messages");
    it->second.retained =
        &metrics_->gauge("loglens_broker_retained_messages", labels,
                         "Messages stored per topic (end minus low-water)");
    it->second.low_water =
        &metrics_->gauge("loglens_broker_low_water", labels,
                         "Lowest partition low-water mark per topic");
    it->second.freed =
        &metrics_->counter("loglens_broker_freed_messages_total", labels,
                           "Messages freed below the low-water mark");
    it->second.fetch_below_horizon = &metrics_->counter(
        "loglens_broker_fetch_below_horizon_total", labels,
        "Fetches refused because they start below the low-water mark");
    metrics_
        ->gauge("loglens_broker_topics", {},
                "Topics that exist on this broker")
        .set(static_cast<int64_t>(topics_.size()));
  }
  return it->second;
}

Broker::TopicData* Broker::resolve_topic(const std::string& topic,
                                         size_t partitions) {
  RankedMutexLock lock(mu_);
  return &topic_data_locked(topic, partitions);
}

const Broker::TopicData* Broker::find_topic(const std::string& topic) const {
  RankedMutexLock lock(mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second;
}

Broker::TopicData* Broker::find_topic(const std::string& topic) {
  return const_cast<TopicData*>(std::as_const(*this).find_topic(topic));
}

Broker::TopicHolds& Broker::topic_holds(const std::string& topic) {
  RankedMutexLock lock(mu_);
  return holds_[topic];
}

Status Broker::create_topic(const std::string& topic, size_t partitions) {
  if (partitions == 0) return Status::Error("topic needs >= 1 partition");
  RankedMutexLock lock(mu_);
  auto it = topics_.find(topic);
  if (it != topics_.end()) {
    if (it->second.partitions.size() != partitions) {
      return Status::Error("topic '" + topic +
                           "' exists with a different partition count");
    }
    return Status::Ok();
  }
  topic_data_locked(topic, partitions);
  return Status::Ok();
}

bool Broker::produce_fault_retries(const std::string& topic) {
  if (faults_ == nullptr) return true;
  // Client-style producer retries: absorb injected append failures here so
  // every producer call site inherits resilience. The loop runs before any
  // broker lock (the backoff sleep must not serialize other producers).
  for (int attempt = 1;
       faults_->check(kFaultSiteProduce) == FaultAction::kThrow; ++attempt) {
    if (attempt >= kProduceMaxAttempts) return false;
    metrics_
        ->counter("loglens_broker_produce_retries_total", {{"topic", topic}},
                  "Produce attempts that were retried")
        .inc();
    produce_backoff(attempt);
  }
  return true;
}

void Broker::stamp_trace(Message& message) {
  if (!trace::enabled()) return;
  // Stamp trace identity at the pipeline edge: inherit the producer's
  // context (so a batch's outputs chain to the span that made them) or
  // start a fresh trace for un-instrumented producers. Redelivered /
  // re-produced messages keep their identity, but the enqueue timestamp
  // is per-produce — queue wait is a property of this append.
  if (message.trace_id == 0) {
    const trace::TraceContext& ctx = trace::current();
    if (ctx.trace_id != 0) {
      message.trace_id = ctx.trace_id;
      message.parent_span = ctx.span_id;
    } else {
      message.trace_id = trace::new_trace_id();
    }
  }
  message.enqueue_us = trace_clock::now_us();
}

void Broker::notify_waiters() const {
  // Pairs with the waiter's register-then-recheck in wait_for_data: the
  // end-offset publish (sequenced before this load) and the waiter count
  // are both seq_cst, so either this produce observes the waiter here or
  // the waiter observes the new end offset on its post-registration
  // recheck. The uncontended produce pays exactly this one load.
  LOGLENS_SCHED_POINT("broker.notify_waiters");
  if (waiters_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section: a waiter that saw no data but has not yet
  // parked still holds wait_mu_; acquiring it here means every registered
  // waiter is inside wait() (or past its recheck) when we notify.
  { RankedMutexLock lock(wait_mu_); }
  sched::cv_notify_all(wait_cv_);
}

void Broker::append(TopicData& data, std::span<Message> batch) {
  const size_t nparts = data.partitions.size();
  auto partition_of = [nparts](const Message& m) -> size_t {
    return nparts == 1 || m.key.empty() ? 0 : fnv1a(m.key) % nparts;
  };
  for (size_t i = 0; i < batch.size();) {
    const size_t p = partition_of(batch[i]);
    Partition& part = *data.partitions[p];
    RankedMutexLock lock(part.mu);
    uint64_t end = part.end.load(std::memory_order_relaxed);
    do {
      if (part.chunks.empty() ||
          part.chunks.back().size() == kChunkMessages) {
        part.chunks.emplace_back().reserve(kChunkMessages);
      }
      Message& m = batch[i];
      if (m.seq < 0) m.seq = static_cast<int64_t>(end);
      part.chunks.back().push_back(std::move(m));
      ++end;
    } while (++i < batch.size() && partition_of(batch[i]) == p);
    part.end.store(end, std::memory_order_seq_cst);
    LOGLENS_SCHED_POINT("broker.end_publish");
  }
  data.retained->add(static_cast<int64_t>(batch.size()));
}

void Broker::release_chunks(TopicData& data, size_t p,
                            const std::list<std::vector<uint64_t>>& holds,
                            std::vector<Chunk>* freed) {
  if (holds.empty()) return;
  uint64_t held = std::numeric_limits<uint64_t>::max();
  for (const auto& hold : holds) {
    held = std::min<uint64_t>(held, p < hold.size() ? hold[p] : 0);
  }
  // The mark only moves under the holds' lock, which the caller holds, and
  // the end only grows, so both are read without the partition lock. The
  // cap at the end keeps the chunk being appended to.
  Partition& part = *data.partitions[p];
  const uint64_t low = part.low.load(std::memory_order_relaxed);
  const uint64_t end = part.end.load(std::memory_order_acquire);
  const uint64_t new_low =
      std::min(held, end) / kChunkMessages * kChunkMessages;
  if (new_low <= low) return;
  LOGLENS_SCHED_POINT("broker.release_chunks");
  RankedMutexLock lock(part.mu);
  for (uint64_t chunk = low; chunk < new_low; chunk += kChunkMessages) {
    freed->push_back(std::move(part.chunks.front()));
    part.chunks.pop_front();
  }
  part.low.store(new_low, std::memory_order_release);
  data.freed->inc(new_low - low);
  data.retained->add(-static_cast<int64_t>(new_low - low));
  uint64_t lowest = new_low;
  for (const auto& other : data.partitions) {
    lowest = std::min(lowest, other->low.load(std::memory_order_relaxed));
  }
  data.low_water->set(static_cast<int64_t>(lowest));
}

Status Broker::produce(const std::string& topic, Message message) {
  if (!produce_fault_retries(topic)) {
    return Status::Error("produce to '" + topic + "' failed after retries");
  }
  stamp_trace(message);
  TopicData* data = resolve_topic(topic, 1);
  append(*data, std::span<Message>(&message, 1));
  data->produced->inc();
  notify_waiters();
  return Status::Ok();
}

Status Broker::produce_batch(const std::string& topic,
                             std::vector<Message> batch,
                             std::vector<Message>* failed) {
  if (batch.empty()) return Status::Ok();
  TopicData* data = resolve_topic(topic, 1);
  // Fault retries and trace stamping stay per message; survivors are
  // compacted in batch order and appended in one step.
  size_t keep = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!produce_fault_retries(topic)) {
      if (failed != nullptr) failed->push_back(std::move(batch[i]));
      continue;
    }
    stamp_trace(batch[i]);
    if (keep != i) batch[keep] = std::move(batch[i]);
    ++keep;
  }
  if (keep > 0) {
    append(*data, std::span<Message>(batch.data(), keep));
    data->produced->inc(static_cast<uint64_t>(keep));
    data->batch_produces->inc();
    notify_waiters();
  }
  if (const size_t nfailed = batch.size() - keep; nfailed > 0) {
    return Status::Error("produce_batch to '" + topic + "': " +
                         std::to_string(nfailed) +
                         " message(s) failed after retries");
  }
  return Status::Ok();
}

bool Broker::fetch_fault(const std::string& topic) const {
  if (faults_ == nullptr) return false;
  // kDelay already slept inside check() (a stalled broker); kThrow maps to
  // a transient empty result the caller's next poll retries.
  if (faults_->check(kFaultSiteFetch) != FaultAction::kThrow) return false;
  metrics_
      ->counter("loglens_broker_fetch_errors_total", {{"topic", topic}},
                "Fetches failed transiently (injected)")
      .inc();
  return true;
}

std::vector<Message> Broker::copy_out(const TopicData& data, size_t partition,
                                      uint64_t offset, size_t max) {
  const Partition& part = *data.partitions[partition];
  std::vector<Message> out;
  RankedMutexLock lock(part.mu);
  const uint64_t low = part.low.load(std::memory_order_relaxed);
  if (offset < low) {
    data.fetch_below_horizon->inc();
    return out;
  }
  const uint64_t end = part.end.load(std::memory_order_relaxed);
  if (offset >= end || max == 0) return out;
  const uint64_t take = std::min<uint64_t>(end - offset, max);
  out.reserve(take);
  // Chunk-wise copy: chunks.front() holds [low, low + kChunkMessages).
  for (uint64_t at = offset; at < offset + take;) {
    const Chunk& chunk = part.chunks[(at - low) / kChunkMessages];
    const uint64_t slot = (at - low) % kChunkMessages;
    const uint64_t n = std::min(offset + take - at, kChunkMessages - slot);
    out.insert(out.end(), chunk.begin() + static_cast<std::ptrdiff_t>(slot),
               chunk.begin() + static_cast<std::ptrdiff_t>(slot + n));
    at += n;
  }
  data.fetched->inc(out.size());
  return out;
}

std::vector<Message> Broker::fetch(const std::string& topic, size_t partition,
                                   uint64_t offset, size_t max) const {
  if (fetch_fault(topic)) return {};
  const TopicData* data = find_topic(topic);
  if (data == nullptr || partition >= data->partitions.size()) return {};
  return copy_out(*data, partition, offset, max);
}

std::vector<Message> Broker::fetch_blocking(const std::string& topic,
                                            size_t partition, uint64_t offset,
                                            size_t max,
                                            int64_t timeout_ms) const {
  // Fault check once at entry (like a connection-level error); the re-fetch
  // after each wakeup is internal and must not re-roll the dice.
  if (fetch_fault(topic)) return {};
  const uint64_t deadline_us =
      trace_clock::now_us() +
      (timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms) * 1000 : 0);
  for (;;) {
    const TopicData* data = find_topic(topic);
    if (data != nullptr && partition < data->partitions.size()) {
      auto out = copy_out(*data, partition, offset, max);
      if (!out.empty()) return out;
    }
    const uint64_t now_us = trace_clock::now_us();
    if (now_us >= deadline_us) return {};
    // Watch only the requested partition; sibling partitions are pinned to
    // the ignore sentinel so their traffic cannot spin this wait.
    const size_t nparts = data == nullptr ? 0 : data->partitions.size();
    std::vector<uint64_t> offsets(std::max(nparts, partition + 1),
                                  kIgnorePartition);
    offsets[partition] = offset;
    (void)wait_for_data(
        topic, offsets,
        static_cast<int64_t>((deadline_us - now_us + 999) / 1000));
  }
}

bool Broker::wait_for_data(const std::string& topic,
                           const std::vector<uint64_t>& offsets,
                           int64_t timeout_ms) const {
  auto has_data = [&]() {
    const TopicData* data = find_topic(topic);
    if (data == nullptr) return false;
    for (size_t p = 0; p < data->partitions.size(); ++p) {
      const uint64_t off = p < offsets.size() ? offsets[p] : 0;
      if (data->partitions[p]->end.load(std::memory_order_seq_cst) > off) {
        return true;
      }
    }
    return false;
  };
  LOGLENS_SCHED_POINT("broker.wait_check");
  if (has_data()) return true;
  if (timeout_ms <= 0) return false;
  const uint64_t deadline_us =
      trace_clock::now_us() + static_cast<uint64_t>(timeout_ms) * 1000;
  // Register, then recheck: a produce that published its end offset before
  // reading waiters_ == 0 is caught by the recheck below (both sides
  // seq_cst); one that read waiters_ > 0 takes wait_mu_ and notifies.
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  LOGLENS_SCHED_POINT("broker.wait_registered");
  bool ready = false;
  {
    RankedMutexLock lock(wait_mu_);
    for (;;) {
      // Explicit wait loop (not the predicate overload): the analysis
      // checks a predicate lambda as its own function, and the topic
      // re-resolve inside has_data takes mu_ — legal here only because
      // kBrokerWait < kBroker.
      if (has_data()) {
        ready = true;
        break;
      }
      const uint64_t now_us = trace_clock::now_us();
      if (now_us >= deadline_us) break;
      sched::cv_wait_for(wait_cv_, lock,
                         std::chrono::microseconds(deadline_us - now_us));
    }
  }
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
  return ready;
}

size_t Broker::partition_count(const std::string& topic) const {
  const TopicData* data = find_topic(topic);
  return data == nullptr ? 0 : data->partitions.size();
}

uint64_t Broker::end_offset(const std::string& topic, size_t partition) const {
  LOGLENS_SCHED_POINT("broker.end_offset");
  const TopicData* data = find_topic(topic);
  if (data == nullptr || partition >= data->partitions.size()) return 0;
  return data->partitions[partition]->end.load(std::memory_order_acquire);
}

uint64_t Broker::low_water(const std::string& topic, size_t partition) const {
  const TopicData* data = find_topic(topic);
  if (data == nullptr || partition >= data->partitions.size()) return 0;
  return data->partitions[partition]->low.load(std::memory_order_acquire);
}

std::vector<std::string> Broker::topics() const {
  RankedMutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(topics_.size());
  for (const auto& [name, _] : topics_) out.push_back(name);
  return out;
}

RetentionHold::RetentionHold(Broker& broker, std::string topic)
    : broker_(broker),
      topic_(std::move(topic)),
      holds_(broker_.topic_holds(topic_)) {
  const Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  if (data != nullptr) {
    for (const auto& part : data->partitions) {
      start_.push_back(part->low.load(std::memory_order_relaxed));
    }
  }
  self_ = holds_.holds.insert(holds_.holds.end(), start_);
}

Broker::TopicData* RetentionHold::topic_data() {
  Broker::TopicData* data = data_.load(std::memory_order_acquire);
  if (data == nullptr) {
    data = broker_.find_topic(topic_);
    data_.store(data, std::memory_order_release);
  }
  return data;
}

RetentionHold::~RetentionHold() {
  std::vector<Broker::Chunk> freed;  // destroyed after the locks below
  Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  holds_.holds.erase(self_);
  if (data == nullptr) return;
  for (size_t p = 0; p < data->partitions.size(); ++p) {
    Broker::release_chunks(*data, p, holds_.holds, &freed);
  }
}

void RetentionHold::advance(size_t partition, uint64_t offset) {
  std::vector<Broker::Chunk> freed;  // destroyed after the locks below
  Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  std::vector<uint64_t>& mine = *self_;
  if (mine.size() <= partition) mine.resize(partition + 1, 0);
  if (offset <= mine[partition]) return;
  mine[partition] = offset;
  if (data != nullptr && partition < data->partitions.size()) {
    Broker::release_chunks(*data, partition, holds_.holds, &freed);
  }
}

Status RetentionHold::move_to(const std::vector<uint64_t>& offsets) {
  std::vector<Broker::Chunk> freed;  // destroyed after the locks below
  Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  const size_t parts = data == nullptr ? 0 : data->partitions.size();
  for (size_t p = 0; p < offsets.size() && p < parts; ++p) {
    const uint64_t low =
        data->partitions[p]->low.load(std::memory_order_relaxed);
    if (offsets[p] < low) {
      const std::string where = topic_ + "/" + std::to_string(p);
      return Status::Error("offset " + std::to_string(offsets[p]) +
                           " is below the low-water mark of " + where);
    }
  }
  std::vector<uint64_t>& mine = *self_;
  if (mine.size() < offsets.size()) mine.resize(offsets.size(), 0);
  std::copy(offsets.begin(), offsets.end(), mine.begin());
  for (size_t p = 0; p < parts; ++p) {
    Broker::release_chunks(*data, p, holds_.holds, &freed);
  }
  return Status::Ok();
}

Consumer::Consumer(Broker& broker, std::string topic,
                   MetricsRegistry* metrics)
    : broker_(broker), topic_(std::move(topic)), hold_(broker_, topic_) {
  offsets_ = hold_.start();
  const size_t parts = std::max<size_t>(1, broker_.partition_count(topic_));
  if (offsets_.size() < parts) offsets_.resize(parts, 0);
  if (metrics != nullptr) {
    MetricLabels labels{{"topic", topic_}};
    queue_depth_ = &metrics->gauge(
        "loglens_consumer_queue_depth", labels,
        "Messages buffered on the broker past this consumer's offsets");
    commits_total_ = &metrics->counter(
        "loglens_consumer_offset_commits_total", labels,
        "Batched offset commits (one per non-empty poll)");
    committed_records_total_ = &metrics->counter(
        "loglens_consumer_committed_records_total", labels,
        "Messages covered by batched offset commits");
  }
}

std::vector<Message> Consumer::poll(size_t max) {
  std::vector<Message> out;
  {
    RankedMutexLock lock(mu_);
    if (offsets_.size() < broker_.partition_count(topic_)) {
      offsets_.resize(broker_.partition_count(topic_), 0);
    }
    for (size_t p = 0; p < offsets_.size() && out.size() < max; ++p) {
      auto batch = broker_.fetch(topic_, p, offsets_[p], max - out.size());
      // Batched offset commit: the whole fetch advances this partition's
      // offset once, inside one critical section — not one bookkeeping
      // write per message.
      if (!batch.empty()) {
        offsets_[p] += batch.size();
        consumed_ += batch.size();
        hold_.advance(p, offsets_[p]);
      }
      if (out.empty()) {
        out = std::move(batch);
      } else {
        out.reserve(out.size() + batch.size());
        for (auto& m : batch) out.push_back(std::move(m));
      }
    }
  }
  if (!out.empty() && commits_total_ != nullptr) {
    commits_total_->inc();
    committed_records_total_->inc(out.size());
  }
  update_queue_depth();
  return out;
}

std::vector<Message> Consumer::poll_blocking(size_t max, int64_t timeout_ms,
                                             size_t min_messages) {
  if (max == 0) return {};
  if (min_messages == 0) min_messages = 1;
  if (min_messages > max) min_messages = max;
  const uint64_t deadline_us =
      trace_clock::now_us() +
      (timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms) * 1000 : 0);
  std::vector<Message> out = poll(max);
  // Accumulate toward the low watermark: park on the broker's waiter CV
  // (woken by a produce to any partition, not a timeout sweep) and drain
  // again, until either min_messages are in hand or the deadline passes.
  // The wait runs unlocked, so lag()/offsets() monitoring never stalls
  // behind it.
  while (out.size() < min_messages) {
    LOGLENS_SCHED_POINT("consumer.poll_park");
    const uint64_t now_us = trace_clock::now_us();
    if (now_us >= deadline_us) break;
    std::vector<uint64_t> offsets;
    {
      RankedMutexLock lock(mu_);
      offsets = offsets_;
    }
    (void)broker_.wait_for_data(
        topic_, offsets,
        static_cast<int64_t>((deadline_us - now_us + 999) / 1000));
    auto more = poll(max - out.size());
    if (out.empty()) {
      out = std::move(more);
    } else {
      for (auto& m : more) out.push_back(std::move(m));
    }
  }
  return out;
}

uint64_t Consumer::consumed() const {
  RankedMutexLock lock(mu_);
  return consumed_;
}

std::vector<uint64_t> Consumer::offsets() const {
  RankedMutexLock lock(mu_);
  return offsets_;
}

Status Consumer::seek(const std::vector<uint64_t>& offsets) {
  RankedMutexLock lock(mu_);
  // The hold moves first and refuses offsets below the low-water mark, so
  // a refused seek leaves both where they were.
  if (Status s = hold_.move_to(offsets); !s.ok()) return s;
  if (offsets_.size() < offsets.size()) offsets_.resize(offsets.size(), 0);
  for (size_t p = 0; p < offsets.size(); ++p) offsets_[p] = offsets[p];
  return Status::Ok();
}

bool Consumer::caught_up() const {
  RankedMutexLock lock(mu_);
  for (size_t p = 0; p < offsets_.size(); ++p) {
    if (offsets_[p] < broker_.end_offset(topic_, p)) return false;
  }
  return true;
}

uint64_t Consumer::lag() const {
  RankedMutexLock lock(mu_);
  uint64_t total = 0;
  size_t partitions = broker_.partition_count(topic_);
  for (size_t p = 0; p < partitions; ++p) {
    uint64_t end = broker_.end_offset(topic_, p);
    uint64_t offset = p < offsets_.size() ? offsets_[p] : 0;
    if (end > offset) total += end - offset;
  }
  return total;
}

void Consumer::update_queue_depth() {
  if (queue_depth_ == nullptr) return;
  queue_depth_->set(static_cast<int64_t>(lag()));
}

}  // namespace loglens
