// loglens — command-line front end to the LogLens library.
//
//   loglens discover <training.log>
//       Discover GROK patterns from a training corpus and print them.
//
//   loglens train <training.log> <model.json>
//       Build the full model (patterns + event automata + extension
//       detectors) and write it as JSON.
//
//   loglens parse <model.json> <logs.log>
//       Parse a log file with a trained model; parsed records go to stdout
//       as JSONL, unparseable lines are reported to stderr.
//
//   loglens detect <model.json> <logs.log>
//       Run the full stateless+stateful pipeline over a log file and print
//       the anomaly report and dashboard summary.
//
//   loglens edit <model.json> <op> [args...]
//       Human-in-the-loop model editing (Section III-A4 / model manager):
//         rename     <pattern-id> <old-field> <new-field>
//         specialize <pattern-id> <field> <literal>
//         generalize <pattern-id> <token-index> <TYPE> <field>
//         drop-pattern   <pattern-id>
//         drop-automaton <automaton-id>
//       Writes the edited model back in place (print with `show`).
//
//   loglens show <model.json>
//       Print a model summary: patterns, automata, extension detectors, and
//       the tokenizer when it is not the default.
//
//   loglens dashboard <model.json> <logs.log>
//       Run the full pipeline over a log file, then print the status
//       dashboard and the Prometheus-style metrics page (engine, parser,
//       detector, broker, job counters/latencies). With --json, print the
//       machine-readable metrics snapshot instead of the Prometheus text.
//
//   loglens demo
//       Self-contained demonstration on a generated dataset.
//
//   loglens trace [<model.json> <logs.log>]
//       Run the pipeline with batch tracing on and print the stage
//       breakdown report (where each batch's latency went: queue wait,
//       routing, parallel execution, publish) plus the lock-contention
//       profile, and export a Chrome trace-event JSON file loadable in
//       Perfetto (--trace-out, default loglens_trace.json). Without
//       arguments it traces the generated benchmark workload.
//
// Flags (must precede the subcommand):
//   --max-dist <d>     clustering threshold for discover/train (default 0.3)
//   --ranges           learn/check KPI field ranges
//   --keywords         learn/check severity keywords
//   --trace-out <f>    trace-event JSON path for `trace`
//
// Tokenizer flags for discover/train (paper §III-A1); the trained model
// records the tokenizer, and every later command parses with it:
//   --delimiters <chars>                the token delimiters, verbatim
//   --split-rule <regex>=<rewrite>      split tokens matching <regex> into
//                                       <rewrite> ($1..$9 are its groups);
//                                       the last '=' separates the two.
//                                       Repeatable.
//   --timestamp-format <fmt>            a timestamp format, e.g.
//                                       "yyyy/MM/dd HH:mm:ss"; any given
//                                       replace the predefined ones.
//                                       Repeatable.
// A rule or format that does not compile exits 2 with the reason.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "datagen/datasets.h"
#include "grok/edit.h"
#include "service/dashboard.h"
#include "service/service.h"
#include "trace/report.h"
#include "trace/trace.h"

namespace loglens {
namespace {

struct CliOptions {
  double max_dist = 0.3;
  PreprocessorOptions tokenizer;
  bool ranges = false;
  bool keywords = false;
  bool json = false;
  std::string trace_out = "loglens_trace.json";
};

int usage() {
  std::fprintf(stderr,
               "usage: loglens [--max-dist D] [--ranges] [--keywords] "
               "[--json] [--trace-out F] [--delimiters CHARS] "
               "[--split-rule REGEX=REWRITE]... [--timestamp-format FMT]... "
               "<discover|train|parse|detect|dashboard|trace|demo> "
               "[args...]\n"
               "  discover  <training.log>\n"
               "  train     <training.log> <model.json>\n"
               "  parse     <model.json> <logs.log>\n"
               "  detect    <model.json> <logs.log>\n"
               "  dashboard <model.json> <logs.log>\n"
               "  trace     [<model.json> <logs.log>]\n"
               "  show      <model.json>\n"
               "  edit      <model.json> <op> [args...]\n"
               "  demo\n");
  return 2;
}

StatusOr<std::vector<std::string>> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return StatusOr<std::vector<std::string>>::Error("cannot open: " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

StatusOr<CompositeModel> read_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) return StatusOr<CompositeModel>::Error("cannot open: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto j = Json::parse(text);
  if (!j.ok()) return StatusOr<CompositeModel>(j.status());
  return CompositeModel::from_json(j.value());
}

BuildOptions build_options(const CliOptions& cli) {
  BuildOptions opts;
  opts.discovery.max_dist = cli.max_dist;
  opts.preprocessor = cli.tokenizer;
  opts.learn_field_ranges = cli.ranges;
  opts.learn_keywords = cli.keywords;
  return opts;
}

// "1.23 s total: tokenize 0.40 s, discover 0.50 s, parse 0.20 s, learn
// 0.13 s"
std::string build_phases(const BuildResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%.2f s total: tokenize %.2f s, discover %.2f s, parse %.2f s, "
                "learn %.2f s",
                r.total_seconds, r.tokenize_s, r.discover_s, r.parse_s,
                r.learn_s);
  return buf;
}

int cmd_discover(const CliOptions& cli, const std::string& training_path) {
  auto lines = read_lines(training_path);
  if (!lines.ok()) {
    std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
    return 1;
  }
  ModelBuilder builder(build_options(cli));
  BuildResult result = builder.build(lines.value());
  std::printf("# %zu patterns from %zu logs (%s)\n",
              result.model.patterns.size(), result.training_logs,
              build_phases(result).c_str());
  for (const auto& p : result.model.patterns) {
    std::printf("P%d: %s\n", p.id(), p.to_string().c_str());
  }
  return 0;
}

int cmd_train(const CliOptions& cli, const std::string& training_path,
              const std::string& model_path) {
  auto lines = read_lines(training_path);
  if (!lines.ok()) {
    std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
    return 1;
  }
  ModelBuilder builder(build_options(cli));
  BuildResult result = builder.build(lines.value());
  std::ofstream out(model_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", model_path.c_str());
    return 1;
  }
  out << result.model.to_json().dump() << "\n";
  std::fprintf(stderr,
               "model: %zu patterns, %zu automata, %zu tracked KPI fields "
               "(%s; %zu/%zu training logs parsed)\n",
               result.model.patterns.size(),
               result.model.sequence.automata.size(),
               result.model.field_ranges.tracked_fields(),
               build_phases(result).c_str(),
               result.training_logs - result.unparsed_training_logs,
               result.training_logs);
  return 0;
}

int cmd_parse(const CliOptions&, const std::string& model_path,
              const std::string& logs_path) {
  auto model = read_model(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  auto lines = read_lines(logs_path);
  if (!lines.ok()) {
    std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
    return 1;
  }
  Preprocessor pre = model->make_preprocessor();
  LogParser parser(model->patterns, pre.classifier());
  size_t anomalies = 0;
  for (const auto& line : lines.value()) {
    auto outcome = parser.parse(pre.process(line));
    if (outcome.log.has_value()) {
      std::printf("%s\n", outcome.log->to_json().dump().c_str());
    } else {
      ++anomalies;
      std::fprintf(stderr, "UNPARSED: %s\n", line.c_str());
    }
  }
  std::fprintf(stderr, "parsed %zu/%zu logs (%zu stateless anomalies)\n",
               lines->size() - anomalies, lines->size(), anomalies);
  return anomalies == 0 ? 0 : 3;
}

int cmd_detect(const CliOptions& cli, const std::string& model_path,
               const std::string& logs_path) {
  auto model = read_model(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  auto lines = read_lines(logs_path);
  if (!lines.ok()) {
    std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
    return 1;
  }
  ServiceOptions opts;
  opts.build = build_options(cli);
  LogLensService service(opts);
  service.models().deploy(service.model_name(), model.value());
  Agent agent = service.make_agent(logs_path);
  agent.replay(lines.value());
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();

  Dashboard dashboard(service.anomalies(), service.model_store(),
                      service.log_store());
  std::printf("%s\n", dashboard.render().c_str());
  std::printf("%s", dashboard.render_recent(10).c_str());
  return service.anomalies().count() == 0 ? 0 : 3;
}

int cmd_dashboard(const CliOptions& cli, const std::string& model_path,
                  const std::string& logs_path) {
  auto model = read_model(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  auto lines = read_lines(logs_path);
  if (!lines.ok()) {
    std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
    return 1;
  }
  ServiceOptions opts;
  opts.build = build_options(cli);
  LogLensService service(opts);
  service.models().deploy(service.model_name(), model.value());
  Agent agent = service.make_agent(logs_path);
  agent.replay(lines.value());
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();

  Dashboard dashboard(service.anomalies(), service.model_store(),
                      service.log_store());
  if (cli.json) {
    std::printf("%s\n", dashboard.metrics_snapshot().dump().c_str());
  } else {
    // "Which sources spiked X in the last hour" — the hour ending at the
    // newest anomaly, so the panel works on replayed historical logs too.
    int64_t newest = -1;
    for (const auto& a : service.anomalies().all()) {
      newest = std::max(newest, a.timestamp_ms);
    }
    std::string spikes;
    if (newest >= 0) {
      spikes = dashboard.render_source_spikes(
          AnomalyType::kOpenStateEvicted, newest - 3600L * 1000, newest);
    }
    std::printf(
        "%s\n%s%s\n%s\n%s", dashboard.render().c_str(), spikes.c_str(),
        dashboard.render_stage_latency().c_str(),
        dashboard.render_broker_retention(service.broker().topics()).c_str(),
        dashboard.render_metrics().c_str());
  }
  return 0;
}

int cmd_show(const std::string& model_path) {
  auto model = read_model(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  std::printf("patterns: %zu\n", model->patterns.size());
  for (const auto& p : model->patterns) {
    std::string text = p.to_string();
    if (text.size() > 120) text = text.substr(0, 117) + "...";
    std::printf("  P%d: %s\n", p.id(), text.c_str());
  }
  std::printf("automata: %zu\n", model->sequence.automata.size());
  for (const auto& a : model->sequence.automata) {
    std::printf("%s", a.describe().c_str());
  }
  std::printf("id fields: %zu, tracked KPI fields: %zu\n",
              model->sequence.id_fields.size(),
              model->field_ranges.tracked_fields());
  const PreprocessorOptions& tokenizer = model->tokenizer;
  if (tokenizer != PreprocessorOptions{}) {
    std::printf("tokenizer: delimiters %s\n",
                Json(tokenizer.delimiters).dump().c_str());
    for (const auto& rule : tokenizer.split_rules) {
      std::printf("  split rule: %s => %s\n", rule.match.c_str(),
                  rule.rewrite.c_str());
    }
    for (const auto& format : tokenizer.timestamp_formats) {
      std::printf("  timestamp format: %s\n", format.c_str());
    }
  }
  return 0;
}

GrokPattern* find_pattern(CompositeModel& model, int id) {
  for (auto& p : model.patterns) {
    if (p.id() == id) return &p;
  }
  return nullptr;
}

int cmd_edit(const std::string& model_path, int argc, char** argv, int arg) {
  auto model = read_model(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  std::string op = argv[arg++];
  Status status = Status::Error("unknown edit op: " + op);
  auto remaining = [&](int n) { return argc - arg >= n; };
  if (op == "rename" && remaining(3)) {
    GrokPattern* p = find_pattern(model.value(), std::atoi(argv[arg]));
    status = p == nullptr
                 ? Status::Error("no such pattern")
                 : pattern_edit::rename_field(*p, argv[arg + 1], argv[arg + 2]);
  } else if (op == "specialize" && remaining(3)) {
    GrokPattern* p = find_pattern(model.value(), std::atoi(argv[arg]));
    status = p == nullptr
                 ? Status::Error("no such pattern")
                 : pattern_edit::specialize(*p, argv[arg + 1], argv[arg + 2]);
  } else if (op == "generalize" && remaining(4)) {
    GrokPattern* p = find_pattern(model.value(), std::atoi(argv[arg]));
    Datatype type;
    if (p == nullptr) {
      status = Status::Error("no such pattern");
    } else if (!datatype_from_name(argv[arg + 2], type)) {
      status = Status::Error(std::string("unknown datatype: ") + argv[arg + 2]);
    } else {
      status = pattern_edit::generalize(
          *p, static_cast<size_t>(std::atoi(argv[arg + 1])), type,
          argv[arg + 3]);
    }
  } else if (op == "drop-pattern" && remaining(1)) {
    int id = std::atoi(argv[arg]);
    size_t before = model->patterns.size();
    std::erase_if(model->patterns,
                  [id](const GrokPattern& p) { return p.id() == id; });
    status = model->patterns.size() < before
                 ? Status::Ok()
                 : Status::Error("no such pattern");
  } else if (op == "drop-automaton" && remaining(1)) {
    int id = std::atoi(argv[arg]);
    size_t before = model->sequence.automata.size();
    std::erase_if(model->sequence.automata,
                  [id](const Automaton& a) { return a.id == id; });
    status = model->sequence.automata.size() < before
                 ? Status::Ok()
                 : Status::Error("no such automaton");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::ofstream out(model_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", model_path.c_str());
    return 1;
  }
  out << model->to_json().dump() << "\n";
  std::fprintf(stderr, "edited %s: %s applied\n", model_path.c_str(),
               op.c_str());
  return 0;
}

int cmd_demo() {
  std::printf("Generating a data-center trace workload (D1 shape)...\n");
  Dataset d1 = make_d1(0.03);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  LogLensService service(opts);
  BuildResult build = service.train(d1.training);
  std::printf("trained: %zu patterns, %zu automata from %zu logs\n",
              build.model.patterns.size(),
              build.model.sequence.automata.size(), d1.training.size());
  Agent agent = service.make_agent("demo");
  agent.replay(d1.testing);
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();
  Dashboard dashboard(service.anomalies(), service.model_store(),
                      service.log_store());
  std::printf("\n%s\n%s", dashboard.render().c_str(),
              dashboard.render_recent(5).c_str());
  std::printf("(%zu corrupted workflows were injected)\n",
              d1.injected_anomalies());
  return 0;
}

int cmd_trace(const CliOptions& cli, const std::string& model_path,
              const std::string& logs_path) {
  // The service reports into the global registry; start it clean so the
  // report covers exactly this run.
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.reset();
  trace::set_enabled(true);
  lock_rank::contention_reset();

  if (model_path.empty()) {
    // No inputs: trace the generated benchmark workload (the same D1 shape
    // bench_pipeline_throughput measures).
    Dataset d1 = make_d1(0.1);
    ServiceOptions opts;
    opts.build.discovery = recommended_discovery("D1");
    LogLensService service(opts);
    service.train(d1.training);
    Agent agent = service.make_agent("bench");
    agent.replay(d1.testing);
    service.drain();
  } else {
    auto model = read_model(model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
      return 1;
    }
    auto lines = read_lines(logs_path);
    if (!lines.ok()) {
      std::fprintf(stderr, "error: %s\n", lines.status().message().c_str());
      return 1;
    }
    ServiceOptions opts;
    opts.build = build_options(cli);
    LogLensService service(opts);
    service.models().deploy(service.model_name(), model.value());
    Agent agent = service.make_agent(logs_path);
    agent.replay(lines.value());
    service.drain();
  }

  std::vector<trace::Span> spans = registry.take_trace_spans();
  trace::Report report =
      trace::build_report(spans, registry.spans_dropped());
  std::printf("%s", trace::format_report(report).c_str());

  if (!lock_rank::profiling_enabled()) {
    std::printf(
        "\ncontention profile: compiled out "
        "(rebuild with -DLOGLENS_MUTEX_PROFILE=ON)\n");
  } else {
    auto profile = lock_rank::contention_profile();
    if (profile.empty()) {
      std::printf("\ncontention profile: no contended acquisitions\n");
    } else {
      std::printf("\ncontention profile (per lock rank):\n");
      std::printf("  %-18s %10s %14s %12s\n", "rank", "contended",
                  "wait total", "wait max");
      for (const auto& stat : profile) {
        std::printf("  %-18s %10llu %11.2f ms %9.2f ms\n", stat.name,
                    static_cast<unsigned long long>(stat.contended),
                    static_cast<double>(stat.wait_us_total) / 1000.0,
                    static_cast<double>(stat.wait_us_max) / 1000.0);
      }
    }
  }

  std::ofstream out(cli.trace_out);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", cli.trace_out.c_str());
    return 1;
  }
  out << trace::chrome_trace_json(spans).dump() << "\n";
  std::printf(
      "\nwrote %zu span(s) to %s (open in Perfetto or chrome://tracing)\n",
      spans.size(), cli.trace_out.c_str());
  return 0;
}

}  // namespace
}  // namespace loglens

int main(int argc, char** argv) {
  using namespace loglens;
  CliOptions cli;
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--ranges") == 0) {
      cli.ranges = true;
      ++arg;
    } else if (std::strcmp(argv[arg], "--keywords") == 0) {
      cli.keywords = true;
      ++arg;
    } else if (std::strcmp(argv[arg], "--json") == 0) {
      cli.json = true;
      ++arg;
    } else if (std::strcmp(argv[arg], "--max-dist") == 0 && arg + 1 < argc) {
      cli.max_dist = std::atof(argv[arg + 1]);
      arg += 2;
    } else if (std::strcmp(argv[arg], "--trace-out") == 0 && arg + 1 < argc) {
      cli.trace_out = argv[arg + 1];
      arg += 2;
    } else if (std::strcmp(argv[arg], "--delimiters") == 0 && arg + 1 < argc) {
      cli.tokenizer.delimiters = argv[arg + 1];
      arg += 2;
    } else if (std::strcmp(argv[arg], "--split-rule") == 0 && arg + 1 < argc) {
      const std::string rule = argv[arg + 1];
      const size_t eq = rule.rfind('=');
      if (eq == std::string::npos) return usage();
      cli.tokenizer.split_rules.push_back(
          {rule.substr(0, eq), rule.substr(eq + 1)});
      arg += 2;
    } else if (std::strcmp(argv[arg], "--timestamp-format") == 0 &&
               arg + 1 < argc) {
      cli.tokenizer.timestamp_formats.push_back(argv[arg + 1]);
      arg += 2;
    } else {
      return usage();
    }
  }
  if (Status s = check_tokenizer(cli.tokenizer); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 2;
  }
  if (arg >= argc) return usage();
  std::string cmd = argv[arg++];
  auto need = [&](int n) { return argc - arg >= n; };
  if (cmd == "discover" && need(1)) return cmd_discover(cli, argv[arg]);
  if (cmd == "train" && need(2)) return cmd_train(cli, argv[arg], argv[arg + 1]);
  if (cmd == "parse" && need(2)) return cmd_parse(cli, argv[arg], argv[arg + 1]);
  if (cmd == "detect" && need(2)) {
    return cmd_detect(cli, argv[arg], argv[arg + 1]);
  }
  if (cmd == "dashboard" && need(2)) {
    return cmd_dashboard(cli, argv[arg], argv[arg + 1]);
  }
  if (cmd == "trace") {
    if (need(2)) return cmd_trace(cli, argv[arg], argv[arg + 1]);
    if (need(0) && argc - arg == 0) return cmd_trace(cli, "", "");
    return usage();
  }
  if (cmd == "show" && need(1)) return cmd_show(argv[arg]);
  if (cmd == "edit" && need(2)) return cmd_edit(argv[arg], argc, argv, arg + 1);
  if (cmd == "demo") return cmd_demo();
  return usage();
}
