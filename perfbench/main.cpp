// LogLens end-to-end benchmark program. perfbench/run.py builds and runs it:
//
//   loglens_perfbench --workload d1_long|d4_parse|d1_tick --seed N
//                     --seconds S --trace 0|1 [--scale F]
//
// --trace 0 runs the stock LogLensService and prints the end-to-end
// metrics; --trace 1 runs one untimed service pass and one pass through the
// timed re-wiring (TracedPipeline), and prints the per-layer metrics. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics}, and
// the exit code is 1 when a correctness or reconciliation gate failed.
// --scale shrinks every dataset (the self-test runs at 0.05).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"

#include "harness.h"
#include "traced_pipeline.h"

namespace perfbench {
namespace {

using loglens::BuildResult;
using Fields = std::vector<std::pair<std::string, double>>;

// Every pass runs on a service set up just for it. Before each pass, set-ups
// repeat until they took kSetupBlockSeconds (the last one runs the pass), and
// a run has at least kMinSetups. Host speed drifts in phases of a few
// seconds or more, so set-up samples are spread over the whole run, like the
// passes, instead of taken in one block at its start.
constexpr size_t kMinSetups = 3;
constexpr double kSetupBlockSeconds = 2.0;

// Units follow the metric names: *_s seconds, *_ms milliseconds, *_mb
// megabytes, *logs_per_s logs per second; ratios and counts otherwise.
std::string unit_of(const std::string& name) {
  auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("logs_per_s")) return "1/s";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_s")) return "s";
  if (ends_with("_mb")) return "MB";
  if (ends_with("bytes_per_log")) return "B";
  if (ends_with("ratio") || ends_with("coverage") || ends_with("overhead") ||
      ends_with("slowdown")) {
    return "ratio";
  }
  return "count";
}

void print_result(bool correct, size_t attempted, size_t failed,
                  const Fields& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           unit_of(name) + "\"}";
    std::fprintf(stderr, "  %-40s %14.6g %s\n", name.c_str(), value,
                 unit_of(name).c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// End-to-end metrics from the stock service. setup_s is the median time of
// LogLensService construction plus train(). Passes repeat until `seconds` of
// stream time are measured and kMinSetups set-ups are made. Per-pass figures
// are reported as their median over passes. `input_rss` is the process RSS
// once the inputs are generated; peak_rss_mb counts only the peak above it.
int run_end_to_end(const Inputs& in, double seconds, double input_rss) {
  std::vector<double> setup_s;
  std::vector<PassResult> passes;
  Reference ref;
  bool correct = true;
  size_t attempted = 0, failed = 0;
  double measured_s = 0;
  while (passes.empty() || measured_s < seconds ||
         setup_s.size() < kMinSetups) {
    std::unique_ptr<ServicePipeline> p;
    BuildResult build;
    for (double block_s = 0; block_s < kSetupBlockSeconds;) {
      p.reset();
      const Clock::time_point start = Clock::now();
      p = std::make_unique<ServicePipeline>(in);
      build = p->train(in.training);
      setup_s.push_back(seconds_between(start, Clock::now()));
      block_s += setup_s.back();
    }
    PassResult r = run_pass(*p, in, build.model);
    if (passes.empty()) ref = make_reference(p->service(), in);
    const GateResult g = check_output(p->anomalies(), p->log_store(),
                                      p->broker(), in, ref, r, "service");
    p.reset();
    correct = correct && g.ok;
    failed += g.failed;
    attempted += r.logs;
    measured_s += r.wall_s;
    std::fprintf(stderr,
                 "pass %zu: %zu set-ups so far; %zu logs in %.3f s; "
                 "segments (s):",
                 passes.size() + 1, setup_s.size(), r.logs, r.wall_s);
    for (double s : r.segment_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    passes.push_back(std::move(r));
  }

  // fresh_p50_ms pools every probe of the run: in a closed loop each pass's
  // probes mix ten segments' drain times, and where the per-log cost jumps
  // varies from pass to pass, so one pass's median is bimodal.
  // logs_per_s divides by busy time: in the open loop the wall clock is set
  // by the offered rate, busy time by what the pipeline costs.
  std::vector<double> rate, slowdown, bytes, fresh;
  for (const auto& r : passes) {
    rate.push_back(static_cast<double>(r.logs) / r.busy_s);
    slowdown.push_back(r.tail_slowdown());
    bytes.push_back(r.rss_growth_bytes / static_cast<double>(r.logs));
    fresh.insert(fresh.end(), r.fresh_ms.begin(), r.fresh_ms.end());
  }
  print_result(correct, attempted, failed,
               {{"setup_s", median(setup_s)},
                {"logs_per_s", median(rate)},
                {"tail_slowdown", median(slowdown)},
                {"bytes_per_log", median(bytes)},
                {"peak_rss_mb",
                 (peak_rss_bytes() - input_rss) / (1024.0 * 1024.0)},
                {"fresh_p50_ms", percentile(fresh, 0.50)}});
  return correct ? 0 : 1;
}

// Runs `body` in a forked child and returns the (name, value) pairs it
// produced, or nothing when the child failed. Every pass run this way starts
// from the same process state, heap included, so the untimed and the traced
// pass are compared fairly: in one process a later pass inherits the
// allocator state the earlier ones left. Call only while no other thread
// exists (no service is alive).
std::optional<Fields> in_child(const std::function<Fields()>& body) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int rc = 0;
    std::string out;
    try {
      for (const auto& [name, value] : body()) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", value);
        out += name + " " + num + "\n";
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pass failed: %s\n", e.what());
      rc = 1;
    }
    for (size_t at = 0; at < out.size();) {
      const ssize_t n = write(fds[1], out.data() + at, out.size() - at);
      if (n <= 0) break;
      at += static_cast<size_t>(n);
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  Fields fields;
  std::istringstream lines(text);
  std::string name;
  double value = 0;
  while (lines >> name >> value) fields.emplace_back(name, value);
  return fields;
}

double field(const Fields& fields, const std::string& name) {
  for (const auto& [k, v] : fields) {
    if (k == name) return v;
  }
  return 0;
}

// Identity of a run's stored anomalies, exact in a double.
double anomalies_digest(const loglens::AnomalyStore& store) {
  uint64_t h = loglens::kFnvOffset;
  for (const auto& dump : anomaly_dumps(store)) h = loglens::fnv1a(dump, h);
  return static_cast<double>(h >> 11);
}

// Fields every pass child reports about its gate.
void add_gate_fields(Fields& out, const GateResult& g, const PassResult& r,
                     const loglens::AnomalyStore& store) {
  out.emplace_back("ok", g.ok ? 1 : 0);
  out.emplace_back("failed", static_cast<double>(g.failed));
  out.emplace_back("logs", static_cast<double>(r.logs));
  out.emplace_back("busy_s", r.busy_s);
  out.emplace_back("anomalies", anomalies_digest(store));
}

// Per-layer metrics: an untimed service pass, which also yields the
// reference, then one pass through TracedPipeline, each in its own child.
int run_per_layer(const Inputs& in) {
  const std::string kRefPrefix = "ref.";
  const std::string kMetricPrefix = "metric.";
  Reference ref;
  const auto untimed = in_child([&] {
    ServicePipeline p(in);
    const BuildResult build = p.train(in.training);
    const PassResult r = run_pass(p, in, build.model);
    const Reference own = make_reference(p.service(), in);
    Fields out;
    add_gate_fields(out,
                    check_output(p.anomalies(), p.log_store(), p.broker(), in,
                                 own, r, "service"),
                    r, p.anomalies());
    out.emplace_back("ref_logs", static_cast<double>(own.logs));
    out.emplace_back("ref_seconds", own.seconds);
    for (const auto& [type, count] : own.by_type) {
      out.emplace_back(kRefPrefix + type, static_cast<double>(count));
    }
    return out;
  });
  if (!untimed) return 1;
  for (const auto& [name, value] : *untimed) {
    if (name.rfind(kRefPrefix, 0) == 0) {
      ref.by_type[name.substr(kRefPrefix.size())] = static_cast<size_t>(value);
    }
  }
  ref.logs = static_cast<size_t>(field(*untimed, "ref_logs"));
  ref.seconds = field(*untimed, "ref_seconds");

  const auto traced = in_child([&] {
    TracedPipeline p(in);
    const BuildResult build = p.train(in.training);
    p.begin_pass();
    const PassResult r = run_pass(p, in, build.model);
    Fields out;
    add_gate_fields(out,
                    check_output(p.anomalies(), p.log_store(), p.broker(), in,
                                 ref, r, "traced"),
                    r, p.anomalies());
    for (const auto& [name, value] : p.layer_metrics(r)) {
      out.emplace_back(kMetricPrefix + name, value);
    }
    out.emplace_back(kMetricPrefix + "fresh_p99_ms",
                     percentile(r.fresh_ms, 0.99));
    out.emplace_back(kMetricPrefix + "generator.send_late_p99_ms",
                     percentile(r.late_ms, 0.99));
    return out;
  });
  if (!traced) return 1;

  bool correct = field(*untimed, "ok") == 1 && field(*traced, "ok") == 1;
  if (field(*traced, "anomalies") != field(*untimed, "anomalies")) {
    std::fprintf(stderr,
                 "GATE FAIL [%s traced]: anomalies differ from the service "
                 "run's\n",
                 in.workload.c_str());
    correct = false;
  }
  Fields metrics;
  for (const auto& [name, value] : *traced) {
    if (name.rfind(kMetricPrefix, 0) == 0) {
      metrics.emplace_back(name.substr(kMetricPrefix.size()), value);
    }
  }
  // Reconciliation: the timed layers must account for the traced wall
  // clock to within 10%.
  const double coverage = field(metrics, "pipeline.coverage");
  if (coverage < 0.9 || coverage > 1.1) {
    std::fprintf(stderr,
                 "GATE FAIL [%s traced]: layers cover %.3f of the wall clock "
                 "(bound 0.9..1.1)\n",
                 in.workload.c_str(), coverage);
    correct = false;
  }
  metrics.emplace_back("reference.logs_per_s",
                       static_cast<double>(ref.logs) / ref.seconds);
  metrics.emplace_back(
      "tracing.overhead",
      field(*traced, "busy_s") / field(*untimed, "busy_s") - 1);
  print_result(correct,
               static_cast<size_t>(field(*untimed, "logs") +
                                   field(*traced, "logs")),
               static_cast<size_t>(field(*untimed, "failed") +
                                   field(*traced, "failed")),
               metrics);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: loglens_perfbench --workload d1_long|d4_parse|d1_tick "
               "--seed N --seconds S --trace 0|1 [--scale F]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0, scale = 1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scale") {
      scale = std::atof(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || scale <= 0 ||
      (trace != 0 && trace != 1) ||
      (workload != "d1_long" && workload != "d4_parse" &&
       workload != "d1_tick")) {
    return usage();
  }
  const Clock::time_point start = Clock::now();
  const Inputs in = make_inputs(workload, seed, scale);
  std::fprintf(stderr, "%s: %zu lines, %zu probes, %zu training lines (%.2f s)\n",
               workload.c_str(), in.lines.size(), in.probe_line.size(),
               in.training.size(), seconds_between(start, Clock::now()));
  if (trace == 1) return run_per_layer(in);
  trim_heap();
  return run_end_to_end(in, seconds, rss_bytes());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
