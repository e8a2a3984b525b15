// Scoped timers and lightweight tracing spans.
//
// `ScopedTimer` records an elapsed-microseconds sample into a Histogram on
// destruction — wrap a hot-path section in one and the latency distribution
// shows up in the registry. `ScopedSpan` additionally files a named span
// into the registry's per-thread buffers (inheriting the thread's current
// TraceContext); spans are for coarse stages (a micro-batch, a heartbeat
// sweep, a model rebroadcast), never for per-message work.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/clock.h"
#include "metrics/metrics.h"

namespace loglens {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_us_(trace_clock::now_us()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->record(elapsed_us());
  }

  uint64_t elapsed_us() const { return trace_clock::now_us() - start_us_; }

 private:
  Histogram* histogram_;
  uint64_t start_us_;
};

class ScopedSpan {
 public:
  // `histogram` is optional: pass one to get the span's duration into a
  // latency distribution as well as the trace buffers.
  ScopedSpan(MetricsRegistry* registry, std::string name,
             Histogram* histogram = nullptr)
      : registry_(registry),
        name_(std::move(name)),
        histogram_(histogram),
        start_us_(trace_clock::now_us()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    uint64_t duration = trace_clock::now_us() - start_us_;
    if (histogram_ != nullptr) histogram_->record(duration);
    if (registry_ != nullptr) {
      registry_->record_span(std::move(name_), start_us_, duration);
    }
  }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  Histogram* histogram_;
  uint64_t start_us_;
};

}  // namespace loglens
