// Pattern-discovery scalability (behind §VII-A's "367 patterns in 50 s"):
// LogMine-style clustering cost as a function of corpus size and of the
// number of distinct templates, and the whole model build those costs sit
// in.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "datagen/datasets.h"
#include "datagen/template_gen.h"
#include "service/model_ops.h"

namespace loglens {
namespace {

std::vector<TokenizedLog> corpus(size_t templates, size_t logs,
                                 Preprocessor& pre) {
  TemplateCorpusSpec spec;
  spec.flavor = "storage";
  spec.num_templates = templates;
  spec.train_logs = logs;
  spec.test_logs = 1;
  spec.seed = 31;
  Dataset ds = generate_template_corpus(spec, "disc");
  return bench::tokenize_all(pre, ds.training);
}

void BM_DiscoveryVsCorpusSize(benchmark::State& state) {
  auto pre = std::move(Preprocessor::create({}).value());
  auto logs = corpus(100, static_cast<size_t>(state.range(0)), pre);
  DiscoveryOptions opts;
  opts.max_dist = 0.27;
  for (auto _ : state) {
    PatternDiscoverer discoverer(opts, pre.classifier());
    auto patterns = discoverer.discover(logs);
    benchmark::DoNotOptimize(patterns.size());
    state.counters["patterns"] = static_cast<double>(patterns.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_DiscoveryVsCorpusSize)
    ->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryVsTemplateCount(benchmark::State& state) {
  auto pre = std::move(Preprocessor::create({}).value());
  const auto templates = static_cast<size_t>(state.range(0));
  auto logs = corpus(templates, std::max<size_t>(templates * 6, 2000), pre);
  DiscoveryOptions opts;
  opts.max_dist = 0.27;
  for (auto _ : state) {
    PatternDiscoverer discoverer(opts, pre.classifier());
    auto patterns = discoverer.discover(logs);
    benchmark::DoNotOptimize(patterns.size());
    state.counters["patterns"] = static_cast<double>(patterns.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_DiscoveryVsTemplateCount)
    ->Arg(50)->Arg(150)->Arg(301)
    ->Unit(benchmark::kMillisecond);

// The hierarchical reduction path (max_patterns cap) on top of level 0.
// Note the `patterns` counter: on a uniform synthetic corpus the alignment
// distance collapses quickly once the threshold relaxes, so the cap is met
// with room to spare — the cost shown is the price of the extra levels.
void BM_DiscoveryWithPatternCap(benchmark::State& state) {
  auto pre = std::move(Preprocessor::create({}).value());
  auto logs = corpus(150, 1200, pre);
  DiscoveryOptions opts;
  opts.max_dist = 0.27;
  opts.max_patterns = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    PatternDiscoverer discoverer(opts, pre.classifier());
    auto patterns = discoverer.discover(logs);
    benchmark::DoNotOptimize(patterns.size());
    state.counters["patterns"] = static_cast<double>(patterns.size());
  }
}
BENCHMARK(BM_DiscoveryWithPatternCap)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

// The whole ModelBuilder::build on D4 at 0.1 scale (3234 templates, ~40k
// training lines): tokenize, discover, parse and learn, with each phase's
// seconds and the tokenized corpus's bytes per line as counters. Level 0 and the re-parse use every core, so this
// explains the end-to-end set-up cost; it is not a gate.
void BM_ModelBuild(benchmark::State& state) {
  const Dataset d4 = make_d4(0.1);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D4");
  const ModelBuilder builder(opts);
  for (auto _ : state) {
    BuildResult result = builder.build(d4.training);
    benchmark::DoNotOptimize(result.model.patterns.size());
    state.counters["patterns"] =
        static_cast<double>(result.model.patterns.size());
    state.counters["tokenize_s"] = result.tokenize_s;
    state.counters["discover_s"] = result.discover_s;
    state.counters["parse_s"] = result.parse_s;
    state.counters["learn_s"] = result.learn_s;
    state.counters["corpus_bytes_per_line"] =
        static_cast<double>(result.corpus_bytes) /
        static_cast<double>(d4.training.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d4.training.size()));
}
BENCHMARK(BM_ModelBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace loglens

BENCHMARK_MAIN();
