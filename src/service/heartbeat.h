// Heartbeat Controller (Section V-B).
//
// Stateful anomaly detection is event-driven: with no incoming logs, an open
// state whose end never arrives would stay open forever and its anomaly
// would never be reported. Wall-clock timeouts cannot help because anomaly
// logic runs on *log time*, which may run faster or slower than real time.
// The paper's fix is an external controller that, for each active source,
// periodically emits a dummy (heartbeat) message whose timestamp is
// *predicted log time*, extrapolated from the last observed log and the
// source's log rate.
//
// This controller watches the parsed-log topic with its own consumer (so it
// steals nothing from the pipeline), tracks per-source last timestamp, mean
// inter-log gap, and mean logs-per-tick, and on tick() publishes one
// heartbeat per active source carrying the extrapolated timestamp. The
// engine's custom partitioner then fans each heartbeat out to every
// partition (engine.cpp), which triggers the open-state sweep.
//
// Observation may run ahead of the ticks: observe() reads the new logs
// without emitting, and the next tick starts from what it saw. Clocks only
// depend on the logs in order, so observing in every drain round — which
// LogLensService does, letting the broker free `parsed` behind the
// detector — emits exactly the heartbeats tick-only observation would.
//
// Thread-safety contract: unsynchronized by design — observe()/tick()/
// tick_advance() are driven from a single caller (the service's control
// flow or a test). The broker produce/fetch calls inside are themselves
// thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "broker/broker.h"
#include "metrics/metrics.h"

namespace loglens {

struct HeartbeatOptions {
  std::string watch_topic = "parsed";
  std::string emit_topic = "parsed";
  // Lower bound on how far one tick advances predicted time when a source
  // has gone quiet (so expiry is reached even for slow sources).
  int64_t min_advance_ms = 1000;
};

class HeartbeatController {
 public:
  HeartbeatController(Broker& broker, HeartbeatOptions options = {},
                      MetricsRegistry* metrics = nullptr);

  // Observes new parsed logs (updating per-source clocks), then emits one
  // heartbeat per active source. Returns the number of heartbeats emitted.
  size_t tick();

  // Observes new parsed logs without emitting (see the header comment).
  void observe() { observe_new_logs(); }

  // Test/replay hook: force-advance all sources by `ms` of log time and emit.
  size_t tick_advance(int64_t ms);

  size_t active_sources() const { return sources_.size(); }

 private:
  struct SourceClock {
    int64_t last_ts = -1;        // last embedded timestamp seen
    int64_t predicted_ts = -1;   // extrapolated current log time
    double avg_gap_ms = 0;       // EMA of inter-log gaps
    double avg_logs_per_tick = 0;
    uint64_t logs_since_tick = 0;
    uint64_t logs_total = 0;
  };

  void observe_new_logs();
  size_t emit_all();

  Broker& broker_;
  HeartbeatOptions options_;
  Consumer consumer_;
  std::map<std::string, SourceClock> sources_;

  MetricsRegistry* registry_ = nullptr;
  Counter* ticks_total_ = nullptr;
  Counter* emitted_total_ = nullptr;
  Gauge* active_sources_ = nullptr;
};

}  // namespace loglens
