#include "service/dashboard.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/time.h"

namespace loglens {

std::string Dashboard::render() const {
  std::ostringstream out;
  auto all = anomalies_.all();
  out << "=== LogLens Dashboard ===\n";
  out << "archived logs: " << logs_.size() << "\n";
  out << "models:";
  for (const auto& name : models_.names()) {
    auto entry = models_.latest(name);
    out << " " << name << "(v" << (entry ? entry->version : 0) << ")";
  }
  out << "\nanomalies: " << all.size() << "\n";

  std::map<std::string, size_t> by_type;
  std::map<std::string, size_t> by_source;
  std::map<std::string, size_t> by_severity;
  for (const auto& a : all) {
    ++by_type[std::string(anomaly_type_name(a.type))];
    ++by_source[a.source.empty() ? "<unknown>" : a.source];
    ++by_severity[a.severity];
  }
  out << "  by type:\n";
  for (const auto& [k, v] : by_type) out << "    " << k << ": " << v << "\n";
  out << "  by source:\n";
  for (const auto& [k, v] : by_source) out << "    " << k << ": " << v << "\n";
  out << "  by severity:\n";
  for (const auto& [k, v] : by_severity) {
    out << "    " << k << ": " << v << "\n";
  }
  return out.str();
}

std::string Dashboard::render_metrics() const {
  return metrics_->render_prometheus();
}

Json Dashboard::metrics_snapshot() const { return metrics_->snapshot_json(); }

std::string Dashboard::render_stage_latency() const {
  std::ostringstream out;
  out << "stage latency (trace-derived, us)\n";
  const char* stages[] = {"parser", "detector"};
  // Histogram family -> which label key the stage value rides under (jobs
  // label queue_wait/publish with "job"; engines label route/pool_wait and
  // batch duration with "stage").
  const std::pair<const char*, const char*> rows[] = {
      {"loglens_trace_queue_wait_us", "job"},
      {"loglens_engine_batch_duration_us", "stage"},
      {"loglens_trace_route_us", "stage"},
      {"loglens_trace_pool_wait_us", "stage"},
      {"loglens_trace_publish_us", "job"},
  };
  bool any = false;
  for (const char* stage : stages) {
    bool header = false;
    for (const auto& [family, label] : rows) {
      const Histogram* h =
          metrics_->find_histogram(family, {{label, stage}});
      if (h == nullptr || h->count() == 0) continue;
      if (!header) {
        out << "  " << stage << ":\n";
        header = true;
        any = true;
      }
      Histogram::Snapshot snap = h->snapshot();
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    %-34s p50 %10.0f  p99 %10.0f  (n=%llu)\n", family,
                    snap.p50, snap.p99,
                    static_cast<unsigned long long>(snap.count));
      out << line;
    }
  }
  if (!any) out << "  no batches traced yet\n";
  return out.str();
}

std::string Dashboard::render_broker_retention(
    const std::vector<std::string>& topics) const {
  std::ostringstream out;
  out << "broker retention (messages)\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-16s %10s %10s %10s %14s\n", "topic",
                "stored", "low-water", "freed", "fetches below");
  out << line;
  for (const auto& topic : topics) {
    const MetricLabels labels{{"topic", topic}};
    const Gauge* stored =
        metrics_->find_gauge("loglens_broker_retained_messages", labels);
    const Gauge* low = metrics_->find_gauge("loglens_broker_low_water", labels);
    const Counter* freed =
        metrics_->find_counter("loglens_broker_freed_messages_total", labels);
    const Counter* below = metrics_->find_counter(
        "loglens_broker_fetch_below_horizon_total", labels);
    if (stored == nullptr || low == nullptr || freed == nullptr ||
        below == nullptr) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-16s %10lld %10lld %10llu %14llu\n",
                  topic.c_str(), static_cast<long long>(stored->value()),
                  static_cast<long long>(low->value()),
                  static_cast<unsigned long long>(freed->value()),
                  static_cast<unsigned long long>(below->value()));
    out << line;
  }
  return out.str();
}

std::string Dashboard::render_timeline(int64_t from_ms, int64_t to_ms,
                                       int64_t bucket_ms) const {
  std::ostringstream out;
  if (bucket_ms <= 0 || to_ms <= from_ms) return out.str();
  size_t buckets = static_cast<size_t>((to_ms - from_ms) / bucket_ms) + 1;
  std::vector<size_t> counts(buckets, 0);
  for (const auto& a : anomalies_.all()) {
    if (a.timestamp_ms < from_ms || a.timestamp_ms > to_ms) continue;
    ++counts[static_cast<size_t>((a.timestamp_ms - from_ms) / bucket_ms)];
  }
  size_t peak = *std::max_element(counts.begin(), counts.end());
  if (peak == 0) peak = 1;
  out << "anomaly timeline (" << format_canonical(from_ms) << " .. "
      << format_canonical(to_ms) << ", " << bucket_ms / 1000 << "s buckets)\n";
  for (size_t b = 0; b < buckets; ++b) {
    size_t bar = counts[b] * 50 / peak;
    out << format_canonical(from_ms + static_cast<int64_t>(b) * bucket_ms)
        << " | " << std::string(bar, '#') << " " << counts[b] << "\n";
  }
  return out.str();
}

std::string Dashboard::render_source_spikes(AnomalyType type, int64_t from_ms,
                                            int64_t to_ms) const {
  std::ostringstream out;
  QueryStats stats;
  std::map<std::string, size_t> by_source;
  for (const Anomaly& a : anomalies_.window(type, from_ms, to_ms, &stats)) {
    ++by_source[a.source.empty() ? "<unknown>" : a.source];
  }
  out << "source spikes: " << anomaly_type_name(type) << " in ["
      << format_canonical(from_ms) << " .. " << format_canonical(to_ms)
      << "]\n";
  if (by_source.empty()) {
    out << "  none\n";
  } else {
    // Leaderboard: heaviest sources first, ties in name order.
    std::vector<std::pair<std::string, size_t>> rows(by_source.begin(),
                                                     by_source.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    size_t peak = rows.front().second;
    for (const auto& [source, n] : rows) {
      out << "  " << source << " | " << std::string(n * 40 / peak, '#') << " "
          << n << "\n";
    }
  }
  out << "  (segments: " << stats.segments_considered << " considered, "
      << stats.segments_pruned << " pruned; docs scanned: "
      << stats.docs_scanned << ")\n";
  return out.str();
}

std::string Dashboard::render_recent(size_t limit) const {
  std::ostringstream out;
  auto all = anomalies_.all();
  size_t start = all.size() > limit ? all.size() - limit : 0;
  for (size_t i = start; i < all.size(); ++i) {
    const Anomaly& a = all[i];
    out << "[" << a.severity << "] " << anomaly_type_name(a.type);
    if (a.timestamp_ms >= 0) out << " @ " << format_canonical(a.timestamp_ms);
    if (!a.event_id.empty()) out << " event=" << a.event_id;
    if (!a.source.empty()) out << " source=" << a.source;
    out << "\n    " << a.reason << "\n";
    for (const auto& l : a.logs) {
      out << "      > " << l << "\n";
      if (&l - a.logs.data() >= 2) {  // cap the echo at three lines
        out << "      ...\n";
        break;
      }
    }
  }
  return out.str();
}

}  // namespace loglens
