// Section III-B ablation: the candidate-pattern-group index (O(mn) -> O(n)).
// Same model, same logs — index on vs off — swept over model sizes.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "datagen/template_gen.h"
#include "parser/log_parser.h"

namespace loglens {
namespace {

struct Fixture {
  std::unique_ptr<Preprocessor> pre;
  std::vector<GrokPattern> patterns;
  std::vector<TokenizedLog> logs;
};

const Fixture& fixture_for(size_t templates) {
  static std::map<size_t, Fixture>* kCache = new std::map<size_t, Fixture>();
  auto it = kCache->find(templates);
  if (it != kCache->end()) return it->second;

  TemplateCorpusSpec spec;
  spec.flavor = "storage";
  spec.num_templates = templates;
  spec.train_logs = std::max<size_t>(templates * 3, 2000);
  spec.test_logs = 2000;
  spec.seed = 9;
  Dataset ds = generate_template_corpus(spec, "ablate");

  Fixture f;
  f.pre = std::make_unique<Preprocessor>(
      std::move(Preprocessor::create({}).value()));
  auto train = bench::tokenize_all(*f.pre, ds.training);
  DiscoveryOptions opts;
  opts.max_dist = 0.3;
  f.patterns = bench::discover_patterns(*f.pre, train, opts);
  f.logs = bench::tokenize_all(*f.pre, ds.testing);
  return kCache->emplace(templates, std::move(f)).first->second;
}

void BM_ParseWithIndex(benchmark::State& state) {
  const Fixture& f = fixture_for(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LogParser parser(f.patterns, f.pre->classifier());
    size_t parsed = 0;
    for (const auto& log : f.logs) {
      parsed += parser.parse(log).log.has_value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(parsed);
    state.counters["match_attempts_per_log"] =
        static_cast<double>(parser.stats().match_attempts) /
        static_cast<double>(parser.stats().logs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.logs.size()));
}
BENCHMARK(BM_ParseWithIndex)
    ->Arg(50)->Arg(100)->Arg(200)->Arg(301)
    ->Unit(benchmark::kMillisecond);

// The naive side: every log tries the patterns in model order until one
// parses it (Logstash-style), with the same reusable scratch the parser uses.
void BM_ParseNaiveScan(benchmark::State& state) {
  const Fixture& f = fixture_for(static_cast<size_t>(state.range(0)));
  GrokMatchScratch scratch;
  JsonObject fields;
  for (auto _ : state) {
    size_t parsed = 0;
    uint64_t attempts = 0;
    for (const auto& log : f.logs) {
      for (const auto& p : f.patterns) {
        ++attempts;
        if (p.match_into(log.tokens, f.pre->classifier(), &fields, scratch)) {
          ++parsed;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(parsed);
    state.counters["match_attempts_per_log"] =
        static_cast<double>(attempts) / static_cast<double>(f.logs.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.logs.size()));
}
BENCHMARK(BM_ParseNaiveScan)
    ->Arg(50)->Arg(100)->Arg(200)->Arg(301)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace loglens

BENCHMARK_MAIN();
