// Section VII-A case study: pattern discovery on complex custom-application
// SQL logs. Paper: users took one week to write patterns by hand; LogLens
// generated 367 patterns in 50 seconds (a 12096x man-hour reduction).
#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/datasets.h"
#include "service/model_ops.h"

int main() {
  using namespace loglens;
  double scale = bench::scale_or(0.05);

  bench::print_header("Case study A: custom SQL application logs");
  Dataset sql = make_sql(scale);
  std::printf("scale=%g -> %zu training logs (avg line length %zu chars)\n",
              scale, sql.training.size(), [&] {
                size_t total = 0;
                for (const auto& l : sql.training) total += l.size();
                return sql.training.empty() ? size_t{0}
                                            : total / sql.training.size();
              }());

  BuildOptions opts;
  opts.discovery = recommended_discovery("SQL");
  ModelBuilder builder(opts);
  BuildResult result = builder.build(sql.training);

  std::printf("\npatterns discovered : %zu   (paper: 367)\n",
              result.model.patterns.size());
  std::printf("discovery time      : %.2f s (paper: 50 s on full volume)\n",
              result.discover_s);
  std::printf("total model build   : %.2f s\n", result.total_seconds);
  std::printf("unparsed training   : %zu   (must be 0)\n",
              result.unparsed_training_logs);
  std::printf("manual alternative  : ~1 week of expert effort (paper)\n");

  // Show a few discovered patterns so the reader can judge quality.
  std::printf("\nsample discovered patterns:\n");
  for (size_t i = 0; i < result.model.patterns.size() && i < 3; ++i) {
    std::string text = result.model.patterns[i].to_string();
    if (text.size() > 140) text = text.substr(0, 137) + "...";
    std::printf("  P%zu: %s\n", i + 1, text.c_str());
  }

  bool ok = result.unparsed_training_logs == 0 &&
            result.model.patterns.size() >= 330 &&
            result.model.patterns.size() <= 400;
  std::printf("\npaper shape (about 367 patterns, minutes not weeks) -> %s\n",
              ok ? "REPRODUCED" : "NOT reproduced");
  return ok ? 0 : 1;
}
