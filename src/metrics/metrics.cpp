#include "metrics/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <thread>

namespace loglens {

namespace {

// Escapes a label value for the Prometheus text format.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string render_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first + "=\"" + escape_label(labels[i].second) + "\"";
  }
  out.push_back('}');
  return out;
}

// Same, but with room for an extra injected label (quantile="...").
std::string render_labels_extra(const MetricLabels& labels,
                                const std::string& extra) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k + "=\"" + escape_label(v) + "\",";
  }
  out += extra + "}";
  return out;
}

Json labels_json(const MetricLabels& labels) {
  JsonObject obj;
  for (const auto& [k, v] : labels) obj.emplace_back(k, Json(v));
  return Json(std::move(obj));
}

}  // namespace

size_t Counter::shard_index() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

size_t Histogram::bucket_of(uint64_t v) {
  if (v < 16) return static_cast<size_t>(v);
  size_t m = static_cast<size_t>(std::bit_width(v)) - 1;  // >= 4
  size_t sub = static_cast<size_t>((v >> (m - 4)) & 15);
  return 16 + (m - 4) * 16 + sub;
}

uint64_t Histogram::bucket_lo(size_t b) {
  if (b < 16) return b;
  size_t m = (b - 16) / 16 + 4;
  uint64_t sub = (b - 16) % 16;
  return (uint64_t{1} << m) + sub * (uint64_t{1} << (m - 4));
}

uint64_t Histogram::bucket_width(size_t b) {
  if (b < 16) return 1;
  size_t m = (b - 16) / 16 + 4;
  return uint64_t{1} << (m - 4);
}

void Histogram::record(uint64_t value) {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  // Copy the buckets once and derive everything from the copy, so the
  // percentiles are internally consistent even while writers race.
  uint64_t local[kBuckets];
  uint64_t count = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    local[b] = buckets_[b].load(std::memory_order_relaxed);
    count += local[b];
  }
  Snapshot snap;
  snap.count = count;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (count == 0) return snap;
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);

  auto percentile = [&](double q) {
    auto target = static_cast<uint64_t>(std::ceil(q * count));
    if (target == 0) target = 1;
    uint64_t cum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (local[b] == 0) continue;
      cum += local[b];
      if (cum >= target) {
        // Linear interpolation inside the bucket.
        double frac = static_cast<double>(target - (cum - local[b])) /
                      static_cast<double>(local[b]);
        double v = static_cast<double>(bucket_lo(b)) +
                   frac * static_cast<double>(bucket_width(b));
        return std::clamp(v, static_cast<double>(snap.min),
                          static_cast<double>(snap.max));
      }
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = percentile(0.50);
  snap.p90 = percentile(0.90);
  snap.p95 = percentile(0.95);
  snap.p99 = percentile(0.99);
  return snap;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* kGlobal = new MetricsRegistry();
  return *kGlobal;
}

template <typename M>
M& MetricsRegistry::lookup(std::map<Key, std::unique_ptr<M>>& families,
                           const std::string& name, MetricLabels labels,
                           const std::string& help) {
  std::sort(labels.begin(), labels.end());
  Key key{name, std::move(labels)};
  auto it = families.find(key);
  if (it == families.end()) {
    it = families.emplace(std::move(key), std::make_unique<M>()).first;
    if (!help.empty()) help_.emplace(name, help);
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, MetricLabels labels,
                                  const std::string& help) {
  RankedMutexLock lock(mu_);
  return lookup(counters_, name, std::move(labels), help);
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricLabels labels,
                              const std::string& help) {
  RankedMutexLock lock(mu_);
  return lookup(gauges_, name, std::move(labels), help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MetricLabels labels,
                                      const std::string& help) {
  RankedMutexLock lock(mu_);
  return lookup(histograms_, name, std::move(labels), help);
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 MetricLabels labels) const {
  std::sort(labels.begin(), labels.end());
  RankedMutexLock lock(mu_);
  auto it = histograms_.find(Key{name, std::move(labels)});
  return it == histograms_.end() ? nullptr : it->second.get();
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             MetricLabels labels) const {
  std::sort(labels.begin(), labels.end());
  RankedMutexLock lock(mu_);
  auto it = counters_.find(Key{name, std::move(labels)});
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name,
                                         MetricLabels labels) const {
  std::sort(labels.begin(), labels.end());
  RankedMutexLock lock(mu_);
  auto it = gauges_.find(Key{name, std::move(labels)});
  return it == gauges_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::record_span(std::string name, uint64_t start_us,
                                  uint64_t duration_us) {
  if (!trace::enabled()) return;
  trace::Span span;
  span.name = std::move(name);
  span.start_us = start_us;
  span.duration_us = duration_us;
  const trace::TraceContext& ctx = trace::current();
  span.trace_id = ctx.trace_id;
  span.parent_id = ctx.span_id;
  span.batch = ctx.batch;
  span.span_id = trace::new_span_id();
  span.tid = trace::current_tid();
  span_collector_.record(std::move(span));
}

void MetricsRegistry::record_span(trace::Span span) {
  if (!trace::enabled()) return;
  span_collector_.record(std::move(span));
}

void MetricsRegistry::drain_spans_locked() const {
  std::vector<trace::Span> drained = span_collector_.drain();
  if (drained.empty()) return;
  // Per-thread buffers drain in per-thread FIFO order; interleave them by
  // start time so readers see one coherent timeline.
  std::stable_sort(drained.begin(), drained.end(),
                   [](const trace::Span& a, const trace::Span& b) {
                     return a.start_us < b.start_us;
                   });
  for (auto& span : drained) trace_spans_.push_back(std::move(span));
  if (trace_spans_.size() > kTraceRing) {
    trace_spans_.erase(
        trace_spans_.begin(),
        trace_spans_.begin() +
            static_cast<ptrdiff_t>(trace_spans_.size() - kTraceRing));
  }
}

std::vector<trace::Span> MetricsRegistry::take_trace_spans() {
  RankedMutexLock lock(mu_);
  drain_spans_locked();
  std::vector<trace::Span> out;
  out.swap(trace_spans_);
  return out;
}

std::string MetricsRegistry::render_prometheus() const {
  RankedMutexLock lock(mu_);
  std::ostringstream out;
  // `help` is passed in rather than captured: the Clang analysis treats a
  // lambda body as a separate function, so reading the guarded help_ map
  // inside one would (rightly) fail the capability check.
  auto header = [&out](const std::map<std::string, std::string>& help,
                       const std::string& name, const char* type,
                       const std::string* last) {
    if (last != nullptr && *last == name) return;
    if (auto it = help.find(name); it != help.end()) {
      out << "# HELP " << name << " " << it->second << "\n";
    }
    out << "# TYPE " << name << " " << type << "\n";
  };

  std::string last;
  for (const auto& [key, c] : counters_) {
    header(help_, key.name, "counter", &last);
    last = key.name;
    out << key.name << render_labels(key.labels) << " " << c->value() << "\n";
  }
  last.clear();
  for (const auto& [key, g] : gauges_) {
    header(help_, key.name, "gauge", &last);
    last = key.name;
    out << key.name << render_labels(key.labels) << " " << g->value() << "\n";
  }
  last.clear();
  for (const auto& [key, h] : histograms_) {
    header(help_, key.name, "summary", &last);
    last = key.name;
    Histogram::Snapshot s = h->snapshot();
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.9", s.p90}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, v] : quantiles) {
      out << key.name
          << render_labels_extra(key.labels,
                                 std::string("quantile=\"") + q + "\"")
          << " " << v << "\n";
    }
    out << key.name << "_sum" << render_labels(key.labels) << " " << s.sum
        << "\n";
    out << key.name << "_count" << render_labels(key.labels) << " " << s.count
        << "\n";
  }
  return out.str();
}

Json MetricsRegistry::snapshot_json() const {
  RankedMutexLock lock(mu_);
  JsonArray counters;
  for (const auto& [key, c] : counters_) {
    JsonObject obj;
    obj.emplace_back("name", Json(key.name));
    obj.emplace_back("labels", labels_json(key.labels));
    obj.emplace_back("value", Json(static_cast<int64_t>(c->value())));
    counters.push_back(Json(std::move(obj)));
  }
  JsonArray gauges;
  for (const auto& [key, g] : gauges_) {
    JsonObject obj;
    obj.emplace_back("name", Json(key.name));
    obj.emplace_back("labels", labels_json(key.labels));
    obj.emplace_back("value", Json(g->value()));
    gauges.push_back(Json(std::move(obj)));
  }
  JsonArray histograms;
  for (const auto& [key, h] : histograms_) {
    Histogram::Snapshot s = h->snapshot();
    JsonObject obj;
    obj.emplace_back("name", Json(key.name));
    obj.emplace_back("labels", labels_json(key.labels));
    obj.emplace_back("count", Json(static_cast<int64_t>(s.count)));
    obj.emplace_back("sum", Json(static_cast<int64_t>(s.sum)));
    obj.emplace_back("min", Json(static_cast<int64_t>(s.min)));
    obj.emplace_back("max", Json(static_cast<int64_t>(s.max)));
    obj.emplace_back("p50", Json(s.p50));
    obj.emplace_back("p90", Json(s.p90));
    obj.emplace_back("p95", Json(s.p95));
    obj.emplace_back("p99", Json(s.p99));
    histograms.push_back(Json(std::move(obj)));
  }
  drain_spans_locked();
  JsonArray spans;
  const size_t window = std::min(trace_spans_.size(), kSpanRing);
  for (size_t i = trace_spans_.size() - window; i < trace_spans_.size(); ++i) {
    const trace::Span& rec = trace_spans_[i];
    JsonObject obj;
    obj.emplace_back("name", Json(rec.name));
    obj.emplace_back("start_us", Json(static_cast<int64_t>(rec.start_us)));
    obj.emplace_back("duration_us",
                     Json(static_cast<int64_t>(rec.duration_us)));
    spans.push_back(Json(std::move(obj)));
  }
  JsonObject root;
  root.emplace_back("counters", Json(std::move(counters)));
  root.emplace_back("gauges", Json(std::move(gauges)));
  root.emplace_back("histograms", Json(std::move(histograms)));
  root.emplace_back("spans", Json(std::move(spans)));
  return Json(std::move(root));
}

void MetricsRegistry::reset() {
  RankedMutexLock lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
  drain_spans_locked();  // pull pending spans out of the buffers, then drop
  trace_spans_.clear();
}

}  // namespace loglens
