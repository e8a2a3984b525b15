// Low-overhead, thread-safe metrics for the streaming pipeline.
//
// The paper's evaluation is all about measured runtime behaviour (parser
// throughput vs Logstash, heartbeat sweeps, zero-downtime model updates);
// this subsystem is the measurement substrate. Three primitives:
//
//   Counter   — monotonically increasing, sharded over cacheline-padded
//               atomics so concurrent partition workers never contend on
//               one cell. Reads sum the shards.
//   Gauge     — a point-in-time int64 (open states, consumer lag).
//   Histogram — fixed-bucket log-scale (16 sub-buckets per power of two,
//               ≤ 12.5% relative bucket width) with lock-free recording
//               and p50/p90/p95/p99 snapshots.
//
// `MetricsRegistry` owns named metric families with Prometheus-style
// labels. Registration takes a mutex; the returned references are stable
// for the registry's lifetime, so hot paths resolve handles once (at task
// construction) and then only touch atomics. The registry renders as
// Prometheus text exposition (`render_prometheus`) and as a JSON snapshot
// (`snapshot_json`), and retains completed tracing spans (trace/trace.h)
// for per-stage latency forensics: the hot path files spans into per-thread
// lock-free buffers, and readers drain them on demand.
//
// Metric naming convention (see docs/OBSERVABILITY.md):
//   loglens_<subsystem>_<quantity>[_total|_us]
// with `_total` for counters and `_us` (microseconds) for histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "trace/trace.h"

namespace loglens {

// Label set, e.g. {{"stage", "parser"}, {"partition", "0"}}. Kept sorted by
// the registry so equal sets compare equal regardless of insertion order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const;
  void reset();

 private:
  // Enough shards to keep a handful of partition workers off each other's
  // cachelines; the shard is picked per thread, not per call.
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  static size_t shard_index();
  Shard shards_[kShards];
};

class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0;
    double p90 = 0;
    double p95 = 0;
    double p99 = 0;
  };

  void record(uint64_t value);
  Snapshot snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset();

  // Bucket layout: values 0..15 get exact buckets; above that, each power
  // of two [2^m, 2^(m+1)) splits into 16 equal sub-buckets, bounding the
  // relative error of an interpolated percentile to ~6% of the value. (The
  // earlier 4-sub-bucket layout put ~33%-wide buckets under tail
  // percentiles: a batch-latency p99 interpolated to exactly 65536 — a
  // bucket edge, not a measurement.)
  static constexpr size_t kBuckets = 16 + 60 * 16;
  static size_t bucket_of(uint64_t v);
  static uint64_t bucket_lo(size_t b);
  static uint64_t bucket_width(size_t b);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide default registry. Components take a `MetricsRegistry*`
  // and fall back to this when given nullptr.
  static MetricsRegistry& global();

  // Looks up or creates a metric. References stay valid for the registry's
  // lifetime; `help` is kept from the first registration of a name.
  Counter& counter(const std::string& name, MetricLabels labels = {},
                   const std::string& help = "") LOGLENS_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name, MetricLabels labels = {},
               const std::string& help = "") LOGLENS_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, MetricLabels labels = {},
                       const std::string& help = "") LOGLENS_EXCLUDES(mu_);

  // Read-only lookup (nullptr when the family was never registered) for
  // renderers that must not create empty series as a side effect.
  const Histogram* find_histogram(const std::string& name,
                                  MetricLabels labels = {}) const
      LOGLENS_EXCLUDES(mu_);
  const Counter* find_counter(const std::string& name,
                              MetricLabels labels = {}) const
      LOGLENS_EXCLUDES(mu_);
  const Gauge* find_gauge(const std::string& name,
                          MetricLabels labels = {}) const
      LOGLENS_EXCLUDES(mu_);

  // Files a completed span into the calling thread's lock-free buffer
  // (trace::SpanCollector) — no mutex on this path. The simple overload
  // inherits trace/parent ids from trace::current() and allocates a fresh
  // span id; the trace::Span overload is for callers that pre-allocated
  // ids to parent child spans under. Both are no-ops while tracing is
  // disabled (trace::set_enabled).
  void record_span(std::string name, uint64_t start_us, uint64_t duration_us);
  void record_span(trace::Span span);

  // Drains and moves out every retained span (full trace form, ≤ kTraceRing,
  // sorted by start time). The trace report and bench profile consume this.
  std::vector<trace::Span> take_trace_spans() LOGLENS_EXCLUDES(mu_);

  // Spans lost to full per-thread buffers since construction; a non-zero
  // value means reports under-count and readers should drain more often.
  uint64_t spans_dropped() const { return span_collector_.dropped(); }

  // Prometheus text exposition: counters and gauges as single samples,
  // histograms as summaries (quantile series + _sum + _count).
  std::string render_prometheus() const LOGLENS_EXCLUDES(mu_);

  // Structured snapshot of every metric plus the span ring.
  Json snapshot_json() const LOGLENS_EXCLUDES(mu_);

  // Zeroes every metric in place (handles stay valid) and clears spans.
  void reset() LOGLENS_EXCLUDES(mu_);

 private:
  struct Key {
    std::string name;
    MetricLabels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  template <typename M>
  M& lookup(std::map<Key, std::unique_ptr<M>>& familes,
            const std::string& name, MetricLabels labels,
            const std::string& help) LOGLENS_REQUIRES(mu_);

  // Dashboard window (snapshot_json exposes at most this many) and the
  // full retention cap for take_trace_spans().
  static constexpr size_t kSpanRing = 256;
  static constexpr size_t kTraceRing = 65536;

  // Moves freshly buffered spans from the collector into trace_spans_,
  // oldest dropped beyond kTraceRing.
  void drain_spans_locked() const LOGLENS_REQUIRES(mu_);

  // Metrics registration holds its own lock while resolving handles (e.g.
  // the broker resolving per-topic counters), so only kTrace — the span
  // collector drained under mu_ — may be acquired beyond this one.
  mutable RankedMutex mu_{lock_rank::kMetrics};
  std::map<Key, std::unique_ptr<Counter>> counters_ LOGLENS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ LOGLENS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_
      LOGLENS_GUARDED_BY(mu_);
  std::map<std::string, std::string> help_ LOGLENS_GUARDED_BY(mu_);
  // Per-thread lock-free buffers (hot path) and the drained, time-ordered
  // retention ring readers consume.
  mutable trace::SpanCollector span_collector_;
  mutable std::vector<trace::Span> trace_spans_ LOGLENS_GUARDED_BY(mu_);
};

// Resolves an optional registry pointer to a usable registry.
inline MetricsRegistry& registry_or_global(MetricsRegistry* m) {
  return m != nullptr ? *m : MetricsRegistry::global();
}

}  // namespace loglens
