#pragma once

// Turns drained trace spans into the artifacts the `loglens trace`
// subcommand and bench_pipeline_throughput expose: a per-stage critical-path
// breakdown (where does a batch's wall time go?), its JSON form, and a
// Chrome trace-event file loadable in Perfetto / chrome://tracing.
//
// The attribution model: every `<stage>.pipeline` span is one batch's
// end-to-end pass through that stage (queue wait included). Its child spans
// partition that time into components — `<stage>.queue_wait`,
// `<stage>.control` / `.route` / `.exec` / `.collect` (the engine batch
// phases), `<stage>.publish`, and the log manager's `.poll`, `.archive`
// and `.forward` — plus a residual `other` for instrumentation gaps. Coverage (= attributed / end-to-end) is the report's self-check:
// the bench gates it at 90%.

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.h"
#include "trace/trace.h"

namespace loglens {
namespace trace {

// One attributed component of a stage's time, summed across batches.
struct StageComponent {
  std::string name;       // "queue_wait", "exec", "publish", "other", ...
  uint64_t total_us = 0;  // summed over every batch of the stage
};

// Aggregate attribution for one pipeline stage (one `<stage>.pipeline` span
// family, e.g. "parser" or "detector").
struct StageReport {
  std::string stage;
  uint64_t batches = 0;
  uint64_t total_us = 0;       // Σ end-to-end batch latency
  uint64_t attributed_us = 0;  // Σ components (excluding "other")
  double coverage = 0.0;       // attributed_us / total_us
  double mean_total_us = 0.0;
  double p50_total_us = 0.0;
  double p99_total_us = 0.0;
  std::vector<StageComponent> components;  // ranked by total_us, descending

  // Worst-case exemplar: the batch whose end-to-end latency is the p99.
  int64_t p99_batch = -1;
  uint64_t p99_total_us2 = 0;  // that batch's end-to-end latency
  std::vector<StageComponent> p99_breakdown;

  // Informational — these overlap `exec` (per-partition parallel work), so
  // they are reported but excluded from coverage.
  uint64_t task_us = 0;
  uint64_t pool_wait_us = 0;
};

struct Report {
  std::vector<StageReport> stages;  // stable order of first appearance
  size_t span_count = 0;
  uint64_t spans_dropped = 0;
};

// Builds the attribution report from drained spans (any order).
Report build_report(const std::vector<Span>& spans, uint64_t spans_dropped);

// Human-readable report, the `loglens trace` output.
std::string format_report(const Report& report);

// Structured form, embedded in BENCH_pipeline_profile.json.
Json report_json(const Report& report);

// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X" events,
// microsecond timestamps) — load in Perfetto or chrome://tracing.
Json chrome_trace_json(const std::vector<Span>& spans);

}  // namespace trace
}  // namespace loglens
