// Parser hot-path microbench: the per-log cost of the stateless parser on
// the index-hit fast path, plus the adversarial multi-wildcard case that
// used to trigger exponential backtracking in the GROK matcher.
//
// Writes BENCH_parser.json:
//   parser_hot_path            msgs/sec and allocs/log over warm index-hit
//                              parse_into calls (the allocation contract
//                              says allocs_per_log == 0)
//   parser_adversarial_wildcard  msgs/sec for a 3-wildcard pattern against a
//                              200-token log it cannot match (pre-rewrite
//                              this ran at ~1 msg/sec)
//   parser_shared_signature    msgs/sec and attempts/log for 200 patterns
//                              that share one signature and differ in their
//                              first literal (the literal sub-index keeps
//                              attempts_per_log at 1)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "json/json.h"
#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace loglens {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<GrokPattern> make_model() {
  std::vector<GrokPattern> model;
  int id = 1;
  for (const char* text : {
           "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}",
           "%{WORD:w} logged out session %{NUMBER:n}",
           "%{IP:src} -> %{IP:dst} bytes %{NUMBER:b}",
           "error code %{NUMBER:code} at %{NOTSPACE:loc}",
           "start %{ANYDATA:body} end",
       }) {
    auto p = GrokPattern::parse(text);
    p->assign_field_ids(id++);
    model.push_back(std::move(p.value()));
  }
  return model;
}

struct StageResult {
  std::string stage;
  double msgs_per_sec = 0;
  double allocs_per_log = -1;    // < 0: not measured for this stage
  double attempts_per_log = -1;  // < 0: not measured for this stage
};

StageResult run_hot_path() {
  auto pre = std::move(Preprocessor::create({}).value());
  std::vector<TokenizedLog> logs;
  for (int i = 0; i < 4096; ++i) {
    logs.push_back(pre.process("Connect DB 10.0.0." + std::to_string(i % 250) +
                               " user u" + std::to_string(100000 + i)));
  }
  LogParser parser(make_model(), pre.classifier());
  ParsedLog parsed;
  size_t ok = 0;
  for (const auto& l : logs) ok += parser.parse_into(l, parsed);  // warm

  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  size_t n = 0;
  for (int it = 0; it < 200; ++it) {
    for (const auto& l : logs) {
      ok += parser.parse_into(l, parsed);
      ++n;
    }
  }
  const double secs = seconds_since(t0);
  const uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  StageResult r;
  r.stage = "parser_hot_path";
  r.msgs_per_sec = static_cast<double>(n) / secs;
  r.allocs_per_log = static_cast<double>(allocs) / static_cast<double>(n);
  std::printf("parser_hot_path: %zu logs in %.3fs = %.0f msgs/sec, "
              "%.4f allocs/log (parsed %zu)\n",
              n, secs, r.msgs_per_sec, r.allocs_per_log, ok);
  return r;
}

StageResult run_adversarial() {
  auto pre = std::move(Preprocessor::create({}).value());
  auto adv = GrokPattern::parse(
      "%{ANYDATA:a} alpha %{ANYDATA:b} alpha %{ANYDATA:c} alpha zzz");
  adv->assign_field_ids(99);
  std::string line;
  for (int i = 0; i < 200; ++i) line += "alpha ";
  TokenizedLog log = pre.process(line);
  LogParser parser({adv.value()}, pre.classifier());
  ParsedLog parsed;
  parser.parse_into(log, parsed);  // warm

  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  // Time-box: a regressed matcher must not hang the bench.
  while (reps < 200000 && seconds_since(t0) < 5.0) {
    parser.parse_into(log, parsed);
    ++reps;
  }
  const double secs = seconds_since(t0);

  StageResult r;
  r.stage = "parser_adversarial_wildcard";
  r.msgs_per_sec = static_cast<double>(reps) / secs;
  std::printf("parser_adversarial_wildcard: %d parses in %.3fs = "
              "%.2f msgs/sec\n",
              reps, secs, r.msgs_per_sec);
  return r;
}

std::string svc_name(size_t i) {
  std::string name = "svc";
  name += static_cast<char>('a' + i / 676 % 26);
  name += static_cast<char>('a' + i / 26 % 26);
  name += static_cast<char>('a' + i % 26);
  return name;
}

StageResult run_shared_signature() {
  auto pre = std::move(Preprocessor::create({}).value());
  std::vector<GrokPattern> model;
  for (size_t i = 0; i < 200; ++i) {
    auto p = GrokPattern::parse(svc_name(i) +
                                " worker %{WORD:op} %{NUMBER:n} done");
    p->assign_field_ids(static_cast<int>(i) + 1);
    model.push_back(std::move(p.value()));
  }
  std::vector<TokenizedLog> logs;
  for (size_t i = 0; i < 4096; ++i) {
    logs.push_back(pre.process(svc_name(i * 7 % 200) + " worker start " +
                               std::to_string(i) + " done"));
  }
  LogParser parser(std::move(model), pre.classifier());
  ParsedLog parsed;
  size_t ok = 0;
  for (const auto& l : logs) ok += parser.parse_into(l, parsed);  // warm
  parser.reset_stats();

  const auto t0 = std::chrono::steady_clock::now();
  size_t n = 0;
  for (int it = 0; it < 200; ++it) {
    for (const auto& l : logs) {
      ok += parser.parse_into(l, parsed);
      ++n;
    }
  }
  const double secs = seconds_since(t0);

  StageResult r;
  r.stage = "parser_shared_signature";
  r.msgs_per_sec = static_cast<double>(n) / secs;
  r.attempts_per_log = static_cast<double>(parser.stats().match_attempts) /
                       static_cast<double>(n);
  std::printf("parser_shared_signature: %zu logs in %.3fs = %.0f msgs/sec, "
              "%.2f attempts/log (parsed %zu)\n",
              n, secs, r.msgs_per_sec, r.attempts_per_log, ok);
  return r;
}

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_parser_hot_path"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    obj.emplace_back("msgs_per_sec", Json(r.msgs_per_sec));
    if (r.allocs_per_log >= 0) {
      obj.emplace_back("allocs_per_log", Json(r.allocs_per_log));
    }
    if (r.attempts_per_log >= 0) {
      obj.emplace_back("attempts_per_log", Json(r.attempts_per_log));
    }
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_parser.json");
  out << Json(std::move(root)).dump() << "\n";
}

}  // namespace
}  // namespace loglens

int main() {
  std::vector<loglens::StageResult> results;
  results.push_back(loglens::run_hot_path());
  results.push_back(loglens::run_adversarial());
  results.push_back(loglens::run_shared_signature());
  loglens::write_bench_json(results);
  return 0;
}
