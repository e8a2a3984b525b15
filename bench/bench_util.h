// Shared helpers for the experiment/benchmark binaries.
//
// Every binary is runnable with no arguments. Environment knobs:
//   LOGLENS_SCALE          dataset scale factor (default per binary; 1.0
//                          reproduces paper volumes — slow on a laptop)
//   LOGLENS_BASELINE_BUDGET_S  wall-clock budget for the Logstash baseline
//                          before a dataset is declared "NA (timeout)",
//                          mirroring the paper's 48-hour cutoff (default 20)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "logmine/discoverer.h"
#include "tokenize/preprocessor.h"

namespace loglens::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atof(v);
}

inline double scale_or(double fallback) {
  return env_double("LOGLENS_SCALE", fallback);
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Tokenizes through one scratch log, copying each into an exactly sized
// record, as ModelBuilder::build does.
inline std::vector<TokenizedLog> tokenize_all(
    Preprocessor& pre, const std::vector<std::string>& lines) {
  std::vector<TokenizedLog> out;
  out.reserve(lines.size());
  TokenizedLog scratch;
  for (const auto& l : lines) {
    pre.process_into(l, scratch);
    out.push_back(scratch);
  }
  return out;
}

inline std::vector<GrokPattern> discover_patterns(
    Preprocessor& pre, const std::vector<TokenizedLog>& logs,
    const DiscoveryOptions& opts) {
  PatternDiscoverer discoverer(opts, pre.classifier());
  return discoverer.discover(logs);
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace loglens::bench
