#include "service/heartbeat.h"

#include <algorithm>

#include "metrics/timer.h"

namespace loglens {

HeartbeatController::HeartbeatController(Broker& broker,
                                         HeartbeatOptions options,
                                         MetricsRegistry* metrics)
    : broker_(broker),
      options_(std::move(options)),
      consumer_(broker, options_.watch_topic) {
  registry_ = &registry_or_global(metrics);
  ticks_total_ = &registry_->counter("loglens_heartbeat_ticks_total", {},
                                     "Heartbeat controller sweeps");
  emitted_total_ = &registry_->counter("loglens_heartbeat_emitted_total", {},
                                       "Heartbeat messages emitted");
  active_sources_ = &registry_->gauge("loglens_heartbeat_active_sources", {},
                                      "Sources with a live log-time clock");
}

void HeartbeatController::observe_new_logs() {
  constexpr double kAlpha = 0.2;  // EMA weight for gap estimation
  // Under fault injection an empty poll can be an injected fetch failure
  // rather than an empty topic, so gate on consumer lag (with a bounded
  // retry budget — the next tick resumes from the same offsets anyway).
  // Stopping early here is what silently suppresses heartbeats: a source
  // whose clock is never observed is skipped by emit_all().
  for (int empty_polls = 0; consumer_.lag() > 0 && empty_polls < 100;) {
    auto batch = consumer_.poll(4096);
    if (batch.empty()) {
      ++empty_polls;
      continue;
    }
    for (const auto& m : batch) {
      if (m.tag != MessageTag::kData || m.source.empty() ||
          m.timestamp_ms < 0) {
        continue;
      }
      SourceClock& clock = sources_[m.source];
      if (clock.last_ts >= 0 && m.timestamp_ms > clock.last_ts) {
        double gap = static_cast<double>(m.timestamp_ms - clock.last_ts);
        clock.avg_gap_ms = clock.avg_gap_ms == 0
                               ? gap
                               : (1 - kAlpha) * clock.avg_gap_ms + kAlpha * gap;
      }
      clock.last_ts = std::max(clock.last_ts, m.timestamp_ms);
      clock.predicted_ts = std::max(clock.predicted_ts, clock.last_ts);
      ++clock.logs_since_tick;
      ++clock.logs_total;
    }
  }
}

size_t HeartbeatController::emit_all() {
  ScopedSpan span(registry_, "heartbeat.emit");
  ticks_total_->inc();
  active_sources_->set(static_cast<int64_t>(sources_.size()));
  size_t emitted = 0;
  for (auto& [source, clock] : sources_) {
    if (clock.predicted_ts < 0) continue;
    Message hb;
    hb.key = source;
    hb.timestamp_ms = clock.predicted_ts;
    hb.tag = MessageTag::kHeartbeat;
    hb.source = source;
    broker_.produce(options_.emit_topic, std::move(hb));
    ++emitted;
  }
  emitted_total_->inc(emitted);
  return emitted;
}

size_t HeartbeatController::tick() {
  observe_new_logs();
  constexpr double kAlpha = 0.3;
  for (auto& [_, clock] : sources_) {
    clock.avg_logs_per_tick =
        clock.avg_logs_per_tick == 0
            ? static_cast<double>(clock.logs_since_tick)
            : (1 - kAlpha) * clock.avg_logs_per_tick +
                  kAlpha * static_cast<double>(clock.logs_since_tick);
    if (clock.logs_since_tick == 0 && clock.last_ts >= 0) {
      // Quiet source: extrapolate by rate (expected logs/tick x mean gap),
      // bounded below so expiry is eventually reached.
      auto advance = static_cast<int64_t>(clock.avg_logs_per_tick *
                                          clock.avg_gap_ms);
      clock.predicted_ts += std::max(advance, options_.min_advance_ms);
    }
    clock.logs_since_tick = 0;
  }
  return emit_all();
}

size_t HeartbeatController::tick_advance(int64_t ms) {
  observe_new_logs();
  for (auto& [_, clock] : sources_) {
    if (clock.predicted_ts >= 0) clock.predicted_ts += ms;
    clock.logs_since_tick = 0;
  }
  return emit_all();
}

}  // namespace loglens
