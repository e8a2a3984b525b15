#include "trace/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace loglens {
namespace trace {

namespace {

constexpr std::string_view kPipelineSuffix = ".pipeline";

// The engine batch phases that decompose a `<stage>.batch` span.
constexpr const char* kBatchPhases[] = {"control", "route", "exec", "collect"};

// Pipeline children attributed under their own name: a job's publish, and
// the log manager's poll, archive and forward.
constexpr const char* kPipelineSteps[] = {"publish", "poll", "archive",
                                          "forward"};

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() > suffix.size() &&
         std::string_view(s).substr(s.size() - suffix.size()) == suffix;
}

// One batch's attributed pass through a stage.
struct BatchAttribution {
  int64_t batch = -1;
  uint64_t total_us = 0;
  std::vector<std::pair<std::string, uint64_t>> components;
  uint64_t attributed_us = 0;
  uint64_t task_us = 0;
  uint64_t pool_wait_us = 0;
};

double percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return static_cast<double>(sorted[rank]);
}

std::string format_ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  return buf;
}

}  // namespace

Report build_report(const std::vector<Span>& spans, uint64_t spans_dropped) {
  Report report;
  report.span_count = spans.size();
  report.spans_dropped = spans_dropped;

  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  children.reserve(spans.size());
  for (const Span& span : spans) {
    if (span.parent_id != 0) children[span.parent_id].push_back(&span);
  }
  auto children_of = [&](uint64_t id) -> const std::vector<const Span*>* {
    auto it = children.find(id);
    return it == children.end() ? nullptr : &it->second;
  };

  std::vector<std::string> stage_order;
  std::map<std::string, std::vector<BatchAttribution>> by_stage;

  for (const Span& pipeline : spans) {
    if (!ends_with(pipeline.name, kPipelineSuffix)) continue;
    const std::string stage =
        pipeline.name.substr(0, pipeline.name.size() - kPipelineSuffix.size());
    if (by_stage.find(stage) == by_stage.end()) stage_order.push_back(stage);

    BatchAttribution attr;
    attr.batch = pipeline.batch;
    uint64_t start = pipeline.start_us;
    const uint64_t end = pipeline.start_us + pipeline.duration_us;

    const auto* kids = children_of(pipeline.span_id);
    if (kids != nullptr) {
      for (const Span* child : *kids) {
        if (ends_with(child->name, ".queue_wait")) {
          if (child->start_us < start) start = child->start_us;
          attr.components.emplace_back("queue_wait", child->duration_us);
        } else if (ends_with(child->name, ".batch")) {
          // Decompose the engine batch into its phases; whatever the phase
          // spans do not cover stays attributed to the batch as "batch_other"
          // so the partition still sums to the batch span.
          uint64_t phases = 0;
          if (const auto* grandkids = children_of(child->span_id)) {
            for (const Span* phase : *grandkids) {
              for (const char* known : kBatchPhases) {
                if (ends_with(phase->name, std::string(".") + known)) {
                  attr.components.emplace_back(known, phase->duration_us);
                  phases += phase->duration_us;
                }
              }
              if (ends_with(phase->name, ".exec")) {
                if (const auto* workers = children_of(phase->span_id)) {
                  for (const Span* worker : *workers) {
                    if (ends_with(worker->name, ".task")) {
                      attr.task_us += worker->duration_us;
                    } else if (ends_with(worker->name, ".pool_wait")) {
                      attr.pool_wait_us += worker->duration_us;
                    }
                  }
                }
              }
            }
          }
          if (child->duration_us > phases) {
            attr.components.emplace_back("batch_other",
                                         child->duration_us - phases);
          }
        } else {
          for (const char* step : kPipelineSteps) {
            if (ends_with(child->name, std::string(".") + step)) {
              attr.components.emplace_back(step, child->duration_us);
            }
          }
        }
      }
    }

    attr.total_us = end > start ? end - start : 0;
    for (const auto& [_, us] : attr.components) attr.attributed_us += us;
    by_stage[stage].push_back(std::move(attr));
  }

  for (const std::string& stage : stage_order) {
    auto& batches = by_stage[stage];
    StageReport out;
    out.stage = stage;
    out.batches = batches.size();

    std::map<std::string, uint64_t> component_totals;
    std::vector<uint64_t> totals;
    totals.reserve(batches.size());
    for (const BatchAttribution& attr : batches) {
      out.total_us += attr.total_us;
      out.attributed_us += attr.attributed_us;
      out.task_us += attr.task_us;
      out.pool_wait_us += attr.pool_wait_us;
      totals.push_back(attr.total_us);
      for (const auto& [name, us] : attr.components) {
        component_totals[name] += us;
      }
    }
    if (out.total_us > out.attributed_us) {
      component_totals["other"] += out.total_us - out.attributed_us;
    }
    out.coverage = out.total_us == 0
                       ? 0.0
                       : static_cast<double>(out.attributed_us) /
                             static_cast<double>(out.total_us);
    out.mean_total_us = batches.empty() ? 0.0
                                        : static_cast<double>(out.total_us) /
                                              static_cast<double>(out.batches);

    std::sort(totals.begin(), totals.end());
    out.p50_total_us = percentile(totals, 0.50);
    out.p99_total_us = percentile(totals, 0.99);

    for (const auto& [name, us] : component_totals) {
      out.components.push_back(StageComponent{name, us});
    }
    std::stable_sort(out.components.begin(), out.components.end(),
                     [](const StageComponent& a, const StageComponent& b) {
                       return a.total_us > b.total_us;
                     });

    // The worst-case exemplar: first batch at or above the p99 latency.
    const auto p99_target = static_cast<uint64_t>(out.p99_total_us);
    for (const BatchAttribution& attr : batches) {
      if (attr.total_us < p99_target) continue;
      if (out.p99_batch >= 0 && attr.total_us >= out.p99_total_us2) continue;
      out.p99_batch = attr.batch;
      out.p99_total_us2 = attr.total_us;
      out.p99_breakdown.clear();
      for (const auto& [name, us] : attr.components) {
        out.p99_breakdown.push_back(StageComponent{name, us});
      }
      std::stable_sort(out.p99_breakdown.begin(), out.p99_breakdown.end(),
                       [](const StageComponent& a, const StageComponent& b) {
                         return a.total_us > b.total_us;
                       });
    }

    report.stages.push_back(std::move(out));
  }
  return report;
}

std::string format_report(const Report& report) {
  std::ostringstream out;
  out << "trace report: " << report.span_count << " span(s)";
  if (report.spans_dropped > 0) {
    out << ", " << report.spans_dropped
        << " DROPPED (buffers overflowed; drain more often)";
  }
  out << "\n";
  if (report.stages.empty()) {
    out << "  no pipeline spans recorded (is tracing enabled?)\n";
    return out.str();
  }
  for (const StageReport& stage : report.stages) {
    char cov[16];
    std::snprintf(cov, sizeof(cov), "%.1f%%", stage.coverage * 100.0);
    out << "\nstage " << stage.stage << " — " << stage.batches
        << " batch(es), mean " << format_ms(stage.mean_total_us) << ", p50 "
        << format_ms(stage.p50_total_us) << ", p99 "
        << format_ms(stage.p99_total_us) << ", attributed " << cov << "\n";
    for (const StageComponent& comp : stage.components) {
      char share[16];
      std::snprintf(share, sizeof(share), "%.1f%%",
                    stage.total_us == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(comp.total_us) /
                              static_cast<double>(stage.total_us));
      char line[128];
      std::snprintf(line, sizeof(line), "  %-12s %12s  (%s)\n",
                    comp.name.c_str(),
                    format_ms(static_cast<double>(comp.total_us)).c_str(),
                    share);
      out << line;
    }
    if (stage.task_us > 0 || stage.pool_wait_us > 0) {
      out << "  parallel section: task "
          << format_ms(static_cast<double>(stage.task_us)) << ", pool_wait "
          << format_ms(static_cast<double>(stage.pool_wait_us))
          << " (across partitions; overlaps exec)\n";
    }
    if (stage.p99_batch >= 0) {
      out << "  p99 batch #" << stage.p99_batch << " ("
          << format_ms(static_cast<double>(stage.p99_total_us2)) << "):";
      bool first = true;
      for (const StageComponent& comp : stage.p99_breakdown) {
        out << (first ? " " : ", ") << format_ms(static_cast<double>(
                                           comp.total_us))
            << " " << comp.name;
        first = false;
      }
      out << "\n";
    }
  }
  return out.str();
}

namespace {

Json components_json(const std::vector<StageComponent>& components,
                     uint64_t total_us) {
  JsonArray out;
  for (const StageComponent& comp : components) {
    JsonObject obj;
    obj.emplace_back("name", Json(comp.name));
    obj.emplace_back("total_us", Json(static_cast<int64_t>(comp.total_us)));
    obj.emplace_back("share",
                     Json(total_us == 0
                              ? 0.0
                              : static_cast<double>(comp.total_us) /
                                    static_cast<double>(total_us)));
    out.push_back(Json(std::move(obj)));
  }
  return Json(std::move(out));
}

}  // namespace

Json report_json(const Report& report) {
  JsonArray stages;
  for (const StageReport& stage : report.stages) {
    JsonObject obj;
    obj.emplace_back("stage", Json(stage.stage));
    obj.emplace_back("batches", Json(static_cast<int64_t>(stage.batches)));
    obj.emplace_back("total_us", Json(static_cast<int64_t>(stage.total_us)));
    obj.emplace_back("attributed_us",
                     Json(static_cast<int64_t>(stage.attributed_us)));
    obj.emplace_back("coverage", Json(stage.coverage));
    obj.emplace_back("mean_total_us", Json(stage.mean_total_us));
    obj.emplace_back("p50_total_us", Json(stage.p50_total_us));
    obj.emplace_back("p99_total_us", Json(stage.p99_total_us));
    obj.emplace_back("components",
                     components_json(stage.components, stage.total_us));
    obj.emplace_back("p99_batch", Json(stage.p99_batch));
    obj.emplace_back("p99_breakdown",
                     components_json(stage.p99_breakdown, stage.p99_total_us2));
    obj.emplace_back("task_us", Json(static_cast<int64_t>(stage.task_us)));
    obj.emplace_back("pool_wait_us",
                     Json(static_cast<int64_t>(stage.pool_wait_us)));
    stages.push_back(Json(std::move(obj)));
  }
  // Json::set, not an inlined emplace_back: GCC 12 -O3 warns array-bounds.
  Json root;
  root.set("stages", Json(std::move(stages)));
  root.set("span_count", Json(static_cast<int64_t>(report.span_count)));
  root.set("spans_dropped", Json(static_cast<int64_t>(report.spans_dropped)));
  return root;
}

Json chrome_trace_json(const std::vector<Span>& spans) {
  JsonArray events;
  events.reserve(spans.size());
  for (const Span& span : spans) {
    JsonObject args;
    args.emplace_back("trace", Json(static_cast<int64_t>(span.trace_id)));
    args.emplace_back("span", Json(static_cast<int64_t>(span.span_id)));
    args.emplace_back("parent", Json(static_cast<int64_t>(span.parent_id)));
    args.emplace_back("batch", Json(span.batch));
    JsonObject event;
    event.emplace_back("name", Json(span.name));
    event.emplace_back("cat", Json("loglens"));
    event.emplace_back("ph", Json("X"));
    event.emplace_back("ts", Json(static_cast<int64_t>(span.start_us)));
    event.emplace_back("dur", Json(static_cast<int64_t>(span.duration_us)));
    event.emplace_back("pid", Json(static_cast<int64_t>(0)));
    event.emplace_back("tid", Json(static_cast<int64_t>(span.tid)));
    event.emplace_back("args", Json(std::move(args)));
    events.push_back(Json(std::move(event)));
  }
  Json root;
  root.set("traceEvents", Json(std::move(events)));
  root.set("displayTimeUnit", Json("ms"));
  return root;
}

}  // namespace trace
}  // namespace loglens
