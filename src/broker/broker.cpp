#include "broker/broker.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
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

void produce_backoff(int attempt) {
  int64_t ms = std::min<int64_t>(kProduceBackoffCapMs, 1LL << (attempt - 1));
  // Virtual under a ScheduleController / ScopedVirtualDelays: backoff is a
  // schedule point, not a wall-clock stall (common/sched.h).
  sched::sleep_for_ms(static_cast<uint64_t>(ms));
}
}  // namespace

Broker::TopicData* Broker::resolve_topic(const std::string& topic) {
  RankedMutexLock lock(mu_);
  auto [it, created] = topics_.try_emplace(topic);
  TopicData& data = it->second;
  if (!created) return &data;
  MetricLabels labels{{"topic", topic}};
  data.produced = &metrics_->counter("loglens_broker_messages_produced_total",
                                     labels, "Messages appended per topic");
  data.fetched =
      &metrics_->counter("loglens_broker_messages_fetched_total", labels,
                         "Messages returned by fetches per topic");
  data.batch_produces =
      &metrics_->counter("loglens_broker_batch_produces_total", labels,
                         "produce_batch calls that appended messages");
  data.retained =
      &metrics_->gauge("loglens_broker_retained_messages", labels,
                       "Messages stored per topic (end minus low-water)");
  data.low_water =
      &metrics_->gauge("loglens_broker_low_water", labels,
                       "First offset each topic still stores");
  data.freed = &metrics_->counter("loglens_broker_freed_messages_total", labels,
                                  "Messages freed below the low-water mark");
  data.fetch_below_horizon = &metrics_->counter(
      "loglens_broker_fetch_below_horizon_total", labels,
      "Fetches refused because they start below the low-water mark");
  metrics_
      ->gauge("loglens_broker_topics", {}, "Topics that exist on this broker")
      .set(static_cast<int64_t>(topics_.size()));
  return &data;
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
  if (partitions != 1) {
    return Status::Error("topic '" + topic + "': a topic is one log");
  }
  resolve_topic(topic);
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
  {
    RankedMutexLock lock(data.mu);
    uint64_t end = data.end.load(std::memory_order_relaxed);
    for (Message& m : batch) {
      if (data.chunks.empty() || data.chunks.back().size() == kChunkMessages) {
        data.chunks.emplace_back().reserve(kChunkMessages);
      }
      if (m.seq < 0) m.seq = static_cast<int64_t>(end);
      data.chunks.back().push_back(std::move(m));
      ++end;
    }
    data.end.store(end, std::memory_order_seq_cst);
    LOGLENS_SCHED_POINT("broker.end_publish");
  }
  data.retained->add(static_cast<int64_t>(batch.size()));
}

void Broker::release_chunks(TopicData& data, const std::list<uint64_t>& holds,
                            std::vector<Chunk>* freed) {
  if (holds.empty()) return;
  const uint64_t held = *std::min_element(holds.begin(), holds.end());
  // The mark only moves under the holds' lock, which the caller holds, and
  // the end only grows, so both are read without the log's lock. The cap at
  // the end keeps the chunk being appended to.
  const uint64_t low = data.low.load(std::memory_order_relaxed);
  const uint64_t end = data.end.load(std::memory_order_acquire);
  const uint64_t new_low =
      std::min(held, end) / kChunkMessages * kChunkMessages;
  if (new_low <= low) return;
  LOGLENS_SCHED_POINT("broker.release_chunks");
  RankedMutexLock lock(data.mu);
  for (uint64_t chunk = low; chunk < new_low; chunk += kChunkMessages) {
    freed->push_back(std::move(data.chunks.front()));
    data.chunks.pop_front();
  }
  data.low.store(new_low, std::memory_order_release);
  data.freed->inc(new_low - low);
  data.retained->add(-static_cast<int64_t>(new_low - low));
  data.low_water->set(static_cast<int64_t>(new_low));
}

Status Broker::produce(const std::string& topic, Message message) {
  if (!produce_fault_retries(topic)) {
    return Status::Error("produce to '" + topic + "' failed after retries");
  }
  stamp_trace(message);
  TopicData* data = resolve_topic(topic);
  append(*data, std::span<Message>(&message, 1));
  data->produced->inc();
  notify_waiters();
  return Status::Ok();
}

Status Broker::produce_batch(const std::string& topic,
                             std::vector<Message> batch,
                             std::vector<Message>* failed) {
  if (batch.empty()) return Status::Ok();
  TopicData* data = resolve_topic(topic);
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

std::vector<Message> Broker::copy_out(const TopicData& data, uint64_t offset,
                                      size_t max) {
  std::vector<Message> out;
  RankedMutexLock lock(data.mu);
  const uint64_t low = data.low.load(std::memory_order_relaxed);
  if (offset < low) {
    data.fetch_below_horizon->inc();
    return out;
  }
  const uint64_t end = data.end.load(std::memory_order_relaxed);
  if (offset >= end || max == 0) return out;
  const uint64_t take = std::min<uint64_t>(end - offset, max);
  out.reserve(take);
  // Chunk-wise copy: chunks.front() holds [low, low + kChunkMessages).
  for (uint64_t at = offset; at < offset + take;) {
    const Chunk& chunk = data.chunks[(at - low) / kChunkMessages];
    const uint64_t slot = (at - low) % kChunkMessages;
    const uint64_t n = std::min(offset + take - at, kChunkMessages - slot);
    out.insert(out.end(), chunk.begin() + static_cast<std::ptrdiff_t>(slot),
               chunk.begin() + static_cast<std::ptrdiff_t>(slot + n));
    at += n;
  }
  data.fetched->inc(out.size());
  return out;
}

std::vector<Message> Broker::fetch(const std::string& topic, uint64_t offset,
                                   size_t max) const {
  if (fetch_fault(topic)) return {};
  const TopicData* data = find_topic(topic);
  if (data == nullptr) return {};
  return copy_out(*data, offset, max);
}

bool Broker::wait_for_data(const std::string& topic, uint64_t offset,
                           int64_t timeout_ms) const {
  const TopicData* data = nullptr;
  auto has_data = [&]() {
    if (data == nullptr) data = find_topic(topic);
    return data != nullptr &&
           data->end.load(std::memory_order_seq_cst) > offset;
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
      // checks a predicate lambda as its own function, and resolving a
      // topic that does not exist yet inside has_data takes mu_ — legal
      // here only because kBrokerWait < kBroker.
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
  return find_topic(topic) == nullptr ? 0 : 1;
}

uint64_t Broker::end_offset(const std::string& topic, size_t partition) const {
  LOGLENS_SCHED_POINT("broker.end_offset");
  const TopicData* data = partition == 0 ? find_topic(topic) : nullptr;
  return data == nullptr ? 0 : data->end.load(std::memory_order_acquire);
}

uint64_t Broker::low_water(const std::string& topic) const {
  const TopicData* data = find_topic(topic);
  return data == nullptr ? 0 : data->low.load(std::memory_order_acquire);
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
  if (data != nullptr) start_ = data->low.load(std::memory_order_relaxed);
  self_ = holds_.holds.insert(holds_.holds.end(), start_);
}

Broker::TopicData* RetentionHold::topic_data() const {
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
  if (data != nullptr) Broker::release_chunks(*data, holds_.holds, &freed);
}

void RetentionHold::advance(uint64_t offset) {
  std::vector<Broker::Chunk> freed;  // destroyed after the locks below
  Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  if (offset <= *self_) return;
  *self_ = offset;
  if (data != nullptr) Broker::release_chunks(*data, holds_.holds, &freed);
}

Status RetentionHold::move_to(uint64_t offset) {
  std::vector<Broker::Chunk> freed;  // destroyed after the locks below
  Broker::TopicData* data = topic_data();
  RankedMutexLock lock(holds_.mu);
  if (data != nullptr && offset < data->low.load(std::memory_order_relaxed)) {
    return Status::Error("offset " + std::to_string(offset) +
                         " is below the low-water mark of " + topic_);
  }
  *self_ = offset;
  if (data != nullptr) Broker::release_chunks(*data, holds_.holds, &freed);
  return Status::Ok();
}

Consumer::Consumer(Broker& broker, std::string topic,
                   MetricsRegistry* metrics)
    : broker_(broker), topic_(std::move(topic)), hold_(broker_, topic_) {
  offset_ = hold_.start();
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
    if (max > 0 && !broker_.fetch_fault(topic_)) {
      if (const Broker::TopicData* data = hold_.topic_data()) {
        out = Broker::copy_out(*data, offset_, max);
      }
    }
    // Batched offset commit: the whole fetch advances the offset once,
    // inside one critical section — not one bookkeeping write per message.
    if (!out.empty()) {
      offset_ += out.size();
      consumed_ += out.size();
      hold_.advance(offset_);
    }
  }
  if (!out.empty() && commits_total_ != nullptr) {
    commits_total_->inc();
    committed_records_total_->inc(out.size());
  }
  update_queue_depth();
  return out;
}

std::vector<Message> Consumer::poll_blocking(size_t max, int64_t timeout_ms) {
  if (max == 0) return {};
  const uint64_t deadline_us =
      trace_clock::now_us() +
      (timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms) * 1000 : 0);
  std::vector<Message> out = poll(max);
  // Park on the broker's waiter CV (woken by a produce, not a timeout sweep)
  // and poll again, until a message is in hand or the deadline passes. The
  // wait runs unlocked, so lag()/offset() monitoring never stalls behind it.
  while (out.empty()) {
    LOGLENS_SCHED_POINT("consumer.poll_park");
    const uint64_t now_us = trace_clock::now_us();
    if (now_us >= deadline_us) break;
    (void)broker_.wait_for_data(
        topic_, offset(),
        static_cast<int64_t>((deadline_us - now_us + 999) / 1000));
    out = poll(max);
  }
  return out;
}

uint64_t Consumer::consumed() const {
  RankedMutexLock lock(mu_);
  return consumed_;
}

uint64_t Consumer::offset() const {
  RankedMutexLock lock(mu_);
  return offset_;
}

Status Consumer::seek(uint64_t offset) {
  RankedMutexLock lock(mu_);
  // The hold moves first and refuses offsets below the low-water mark, so
  // a refused seek leaves both where they were.
  if (Status s = hold_.move_to(offset); !s.ok()) return s;
  offset_ = offset;
  return Status::Ok();
}

bool Consumer::caught_up() const { return lag() == 0; }

uint64_t Consumer::lag() const {
  const Broker::TopicData* data = hold_.topic_data();
  RankedMutexLock lock(mu_);
  if (data == nullptr) return 0;
  const uint64_t end = data->end.load(std::memory_order_acquire);
  return end > offset_ ? end - offset_ : 0;
}

void Consumer::update_queue_depth() {
  if (queue_depth_ == nullptr) return;
  queue_depth_->set(static_cast<int64_t>(lag()));
}

}  // namespace loglens
