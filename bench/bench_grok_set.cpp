// Set-level GROK matching (ROADMAP item 2): the index-miss and discovery
// paths with the whole pattern set compiled into one matcher
// (grok/set_matcher.h) versus the per-pattern linear scan.
//
// The model is adversarial for the signature index: every pattern is
// "svc<xyz> worker %{WORD:op} %{NUMBER:n} done" with a unique literal
// service name, so all ~2000 patterns share one signature and every log's
// candidate group is the whole model. The linear scan pays ~group/2 match
// attempts per log; the set matcher pays one signature walk to build the
// group and one token walk to pick the single matching candidate.
//
// Stages (BENCH_grok_set.json, gated in CI by tools/bench_compare.py):
//   grok_set_index_miss         logs/sec, set matcher on, index_capacity=1
//                               (every log pays a group build + match scan)
//   grok_set_linear             same workload, set matcher off
//   grok_set_discovery_filter   logs/sec deciding known-pattern coverage in
//                               discover_incremental's walk
//   grok_set_attempt_reduction_x  match attempts per log, linear / set
//                               (reported in the msgs_per_sec field so the
//                               --min-rate gate applies; the acceptance
//                               floor is 5x, the measured value ~1000x)
//   grok_set_group_scan         logs/sec on index hits of a small D4 model,
//                               default parser: its groups are small against
//                               their logs' token counts, so it scans
//   grok_set_group_walk         the same logs with the token walk forced
//
// Exits 1 in-process when the attempt reduction is under 5x, when the two
// configurations of either workload disagree on any parse outcome, or when
// the default parser walks on D4.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "grok/set_matcher.h"
#include "json/json.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string svc_name(size_t i) {
  std::string suffix(3, 'a');
  suffix[0] = static_cast<char>('a' + i / 676 % 26);
  suffix[1] = static_cast<char>('a' + i / 26 % 26);
  suffix[2] = static_cast<char>('a' + i % 26);
  return "svc" + suffix;
}

std::vector<GrokPattern> make_model(size_t n) {
  std::vector<GrokPattern> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto p = GrokPattern::parse(svc_name(i) +
                                " worker %{WORD:op} %{NUMBER:n} done");
    p->assign_field_ids(static_cast<int>(i) + 1);
    out.push_back(std::move(p.value()));
  }
  return out;
}

std::vector<TokenizedLog> make_logs(Preprocessor& pre, size_t patterns,
                                    size_t count) {
  Rng rng(7);
  std::vector<TokenizedLog> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(pre.process(svc_name(rng.below(patterns)) +
                              " worker start " + std::to_string(i) + " done"));
  }
  return out;
}

struct StageResult {
  std::string stage;
  double msgs_per_sec = 0;
};

struct ParseRun {
  StageResult result;
  uint64_t match_attempts = 0;
  uint64_t unparsed = 0;
};

ParseRun run_parser(const std::vector<GrokPattern>& model,
                    Preprocessor& pre,
                    const std::vector<TokenizedLog>& logs, SetMatchMode mode,
                    const char* stage) {
  // index_capacity=1 with one shared signature still caches the one group,
  // so evict it by construction: capacity 1 plus a second, never-matching
  // signature interleaved would complicate the workload. Instead parse a
  // churn log with a different signature between payload logs so every
  // payload parse is an index miss — the path this benchmark is about.
  LogParser parser(model, pre.classifier(), IndexMode::kEnabled, 1, mode);
  TokenizedLog churn = pre.process("one two three");

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& log : logs) {
    parser.parse(log);
    parser.parse(churn);
  }
  const double secs = seconds_since(t0);

  ParseRun run;
  run.result.stage = stage;
  run.result.msgs_per_sec = static_cast<double>(logs.size()) / secs;
  run.match_attempts = parser.stats().match_attempts;
  run.unparsed = parser.stats().unparsed - logs.size();  // churn logs
  std::printf("%s: %zu logs x %zu patterns in %.3fs = %.0f logs/sec "
              "(%llu match attempts, %llu set walks, %llu fallbacks)\n",
              stage, logs.size(), model.size(), secs, run.result.msgs_per_sec,
              static_cast<unsigned long long>(run.match_attempts),
              static_cast<unsigned long long>(parser.stats().set_walks),
              static_cast<unsigned long long>(parser.stats().set_fallbacks));
  return run;
}

StageResult run_discovery_filter(const std::vector<GrokPattern>& model,
                                 Preprocessor& pre,
                                 const std::vector<TokenizedLog>& logs) {
  // The discover_incremental front half: one token walk per log deciding
  // whether any known pattern covers it.
  const GrokSetMatcher matcher = GrokSetMatcher::compile_tokens(model);
  GrokSetScratch scratch;
  size_t covered = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& log : logs) {
    if (matcher.match_tokens(log.tokens, pre.classifier(), scratch)) {
      covered += scratch.result.empty() ? 0 : 1;
    }
  }
  const double secs = seconds_since(t0);

  StageResult r;
  r.stage = "grok_set_discovery_filter";
  r.msgs_per_sec = static_cast<double>(logs.size()) / secs;
  std::printf("%s: %zu logs (%zu covered) in %.3fs = %.0f logs/sec\n",
              r.stage.c_str(), logs.size(), covered, secs, r.msgs_per_sec);
  return r;
}

// Logs/sec over repeated passes of a parser that has already seen `logs`,
// so every parse is an index hit.
double hit_rate(LogParser& parser, const std::vector<TokenizedLog>& logs) {
  ParsedLog out;
  constexpr int kPasses = 5;
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& log : logs) parser.parse_into(log, out);
  }
  return static_cast<double>(kPasses * logs.size()) / seconds_since(t0);
}

// The scan side of the match route: D4's groups (27-56 patterns against
// logs of about 24 tokens) stay below the walk's break-even, so the default
// parser must never walk, and must parse exactly as the forced walk does.
bool run_group_scan(Preprocessor& pre, double scale,
                    std::vector<StageResult>& results) {
  const Dataset d4 = make_d4(0.01 * scale);
  const auto model = bench::discover_patterns(
      pre, bench::tokenize_all(pre, d4.training),
      recommended_discovery("D4"));
  const auto logs = bench::tokenize_all(pre, d4.testing);

  LogParser routed(model, pre.classifier());
  LogParser forced(model, pre.classifier());
  forced.force_set_walk(true);
  size_t diverged = 0;
  for (const auto& log : logs) {
    const auto a = routed.parse(log);
    const auto b = forced.parse(log);
    if (a.log.has_value() != b.log.has_value() ||
        (a.log && a.log->to_json().dump() != b.log->to_json().dump())) {
      ++diverged;
    }
  }

  StageResult scan{"grok_set_group_scan", hit_rate(routed, logs)};
  StageResult walk{"grok_set_group_walk", hit_rate(forced, logs)};
  const uint64_t walks = routed.stats().set_walks;
  std::printf("%s: %zu logs x %zu patterns = %.0f logs/sec "
              "(%.1f match attempts/log, %llu set walks)\n",
              scan.stage.c_str(), logs.size(), model.size(),
              scan.msgs_per_sec,
              static_cast<double>(routed.stats().match_attempts) /
                  static_cast<double>(routed.stats().logs),
              static_cast<unsigned long long>(walks));
  std::printf("%s: same logs, walk forced = %.0f logs/sec\n",
              walk.stage.c_str(), walk.msgs_per_sec);
  results.push_back(scan);
  results.push_back(walk);

  bool ok = true;
  if (diverged != 0) {
    std::printf("FAIL: %zu D4 parse outcomes diverge between the scan and "
                "the forced walk\n", diverged);
    ok = false;
  }
  if (walks != 0) {
    std::printf("FAIL: the default parser walked %llu times on D4, whose "
                "groups should all be scanned\n",
                static_cast<unsigned long long>(walks));
    ok = false;
  }
  return ok;
}

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_grok_set"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    obj.emplace_back("msgs_per_sec", Json(r.msgs_per_sec));
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_grok_set.json");
  out << Json(std::move(root)).dump() << "\n";
}

}  // namespace
}  // namespace loglens

int main() {
  using loglens::StageResult;
  const double scale = loglens::bench::scale_or(1.0);
  const size_t patterns = static_cast<size_t>(2000 * scale) < 100
                              ? 100
                              : static_cast<size_t>(2000 * scale);
  const size_t log_count = static_cast<size_t>(20'000 * scale) < 1'000
                               ? 1'000
                               : static_cast<size_t>(20'000 * scale);

  loglens::bench::print_header("set-level GROK matcher benchmarks");
  auto pre = loglens::Preprocessor::create({}).value();
  const auto model = loglens::make_model(patterns);
  const auto logs = loglens::make_logs(pre, patterns, log_count);

  const auto set_run = loglens::run_parser(model, pre, logs,
                                           loglens::SetMatchMode::kAuto,
                                           "grok_set_index_miss");
  const auto linear_run = loglens::run_parser(model, pre, logs,
                                              loglens::SetMatchMode::kDisabled,
                                              "grok_set_linear");

  std::vector<StageResult> results;
  results.push_back(set_run.result);
  results.push_back(linear_run.result);
  results.push_back(loglens::run_discovery_filter(model, pre, logs));

  StageResult reduction;
  reduction.stage = "grok_set_attempt_reduction_x";
  reduction.msgs_per_sec =
      static_cast<double>(linear_run.match_attempts) /
      static_cast<double>(set_run.match_attempts == 0 ? 1
                                                      : set_run.match_attempts);
  std::printf("%s: %llu linear attempts vs %llu set attempts = %.1fx\n",
              reduction.stage.c_str(),
              static_cast<unsigned long long>(linear_run.match_attempts),
              static_cast<unsigned long long>(set_run.match_attempts),
              reduction.msgs_per_sec);
  results.push_back(reduction);
  bool ok = loglens::run_group_scan(pre, scale, results);
  loglens::write_bench_json(results);

  if (set_run.unparsed != linear_run.unparsed) {
    std::printf("FAIL: parse outcomes diverge (set %llu vs linear %llu "
                "unparsed)\n",
                static_cast<unsigned long long>(set_run.unparsed),
                static_cast<unsigned long long>(linear_run.unparsed));
    ok = false;
  }
  if (reduction.msgs_per_sec < 5.0) {
    std::printf("FAIL: attempt reduction %.1fx is under the 5x floor\n",
                reduction.msgs_per_sec);
    ok = false;
  }
  return ok ? 0 : 1;
}
