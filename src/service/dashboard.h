// Visualization Dashboard (Figure 1), terminal edition.
//
// Combines information from the log store, model store, and anomaly store
// into human-readable summaries: anomaly counts by type/source/severity, a
// per-minute anomaly timeline (the textual analogue of the paper's Figure 6
// cluster plot), recent anomaly detail, and the model inventory. Ad-hoc
// queries pass through to the anomaly store.
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "service/model.h"
#include "storage/stores.h"

namespace loglens {

class Dashboard {
 public:
  Dashboard(const AnomalyStore& anomalies, const ModelStore& models,
            const LogStore& logs, const MetricsRegistry* metrics = nullptr)
      : anomalies_(anomalies),
        models_(models),
        logs_(logs),
        metrics_(metrics != nullptr ? metrics : &MetricsRegistry::global()) {}

  // Multi-line textual summary of system status.
  std::string render() const;

  // Prometheus-style text exposition of every pipeline metric (engine,
  // parser, detector, broker, jobs, heartbeats).
  std::string render_metrics() const;

  // The same data as a machine-readable JSON snapshot (plus recent spans).
  Json metrics_snapshot() const;

  // Trace-derived stage-latency table: per-hop p50/p99 (queue wait, batch
  // duration, routing, pool wait, publish) from the tracing histograms the
  // jobs and engines record. Rows appear once a stage has processed a batch.
  std::string render_stage_latency() const;

  // "Where is the broker's memory": per topic, the messages stored (end
  // minus low-water), the lowest partition low-water mark, the messages
  // freed below it, and fetches refused below it. Topics whose broker
  // reported into another registry are skipped.
  std::string render_broker_retention(
      const std::vector<std::string>& topics) const;

  // Anomaly-count-per-bucket timeline over [from_ms, to_ms]; the text bar
  // chart that surfaces temporal anomaly clusters.
  std::string render_timeline(int64_t from_ms, int64_t to_ms,
                              int64_t bucket_ms) const;

  // Detail listing of the most recent `limit` anomalies.
  std::string render_recent(size_t limit) const;

  // The LogRouter-style ad-hoc query panel: "which sources spiked <type>
  // in [from_ms, to_ms]?" — a term + range query served straight from the
  // anomaly store's segment engine (zone maps prune segments outside the
  // window), rendered as a per-source leaderboard.
  std::string render_source_spikes(AnomalyType type, int64_t from_ms,
                                   int64_t to_ms) const;

 private:
  const AnomalyStore& anomalies_;
  const ModelStore& models_;
  const LogStore& logs_;
  const MetricsRegistry* metrics_;
};

}  // namespace loglens
