// End-to-end benchmark harness: generated workload inputs, the generator
// loop that drives a pipeline from the first Agent::send_line to the last
// anomaly stored, and the correctness gate every run must pass.
//
// The loop is a template over the pipeline so the same code drives the stock
// LogLensService (ServicePipeline, the untimed run that produces the
// end-to-end metrics) and the benchmark's own re-wiring of it with timers
// around every layer call (TracedPipeline, the per-layer run).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Open-loop generator: one tick every kTickPeriod sends the lines that are
// due and drains once (the paper's Spark Streaming micro-batch interval);
// every kDeployEveryTicks ticks the trained model is redeployed.
inline constexpr std::chrono::milliseconds kTickPeriod{10};
inline constexpr uint64_t kDeployEveryTicks = 100;
// The final heartbeat pushes log time a year ahead, as replay_archive does,
// so every open event resolves before the output is compared.
inline constexpr int64_t kFarFutureMs = 365LL * 24 * 3600 * 1000;

// Probe lines carry this marker followed by their probe number. No pattern
// parses them, so each surfaces as one UNPARSED_LOG anomaly after crossing
// every layer; its freshness is timed from send (closed loop) or due time
// (open loop) to the end of the drain that stored it.
inline constexpr std::string_view kProbeMarker = "probe#";

// One workload's generated input. The pipeline only ever sees `lines`.
struct Inputs {
  std::string workload;
  loglens::ServiceOptions options;
  std::vector<std::string> training;
  std::vector<std::string> sources;
  std::vector<std::string> lines;
  std::vector<uint32_t> source_of;  // per line: index into `sources`
  std::vector<int32_t> probe_of;    // per line: probe number, -1 for data
  std::vector<size_t> probe_line;   // per probe: its line index
  // Injected D1 anomalous event ids; each must be reported.
  std::set<std::string> anomalous_ids;
  bool open_loop = false;  // lines are due on a fixed schedule (d1_tick)
  double rate_per_s = 0;   // open loop only
  size_t segments = 10;    // closed loop: a drain after each segment
};

// `scale` shrinks every stream and the D4 training split (1 = full size).
Inputs make_inputs(const std::string& workload, uint64_t seed, double scale);

// Process memory, from /proc/self.
double rss_bytes();
double peak_rss_bytes();
// Returns freed heap to the OS so RSS growth is measured the same way on the
// first and on later passes of a run (run_pass calls it before timing).
void trim_heap();

struct PassResult {
  size_t logs = 0;
  double wall_s = 0;  // first send to the return of the final drain
  double busy_s = 0;  // wall_s minus the open-loop generator's sleeps
  // Busy time and logs per tenth of the stream.
  std::vector<double> segment_s;
  std::vector<size_t> segment_logs;
  double rss_growth_bytes = 0;
  std::vector<double> fresh_ms;  // per stored probe
  std::vector<double> late_ms;   // generator lateness samples
  size_t probes_missing = 0;
  size_t open_events_end = 0;  // open events before the final heartbeat

  // Time per log in the last fifth of the stream over that in the first
  // fifth (two segments each, which halves the noise of one segment); 1.0
  // means per-log cost is flat.
  double tail_slowdown() const {
    const size_t n = segment_s.size();
    return ((segment_s[n - 1] + segment_s[n - 2]) /
            static_cast<double>(segment_logs[n - 1] + segment_logs[n - 2])) /
           ((segment_s[0] + segment_s[1]) /
            static_cast<double>(segment_logs[0] + segment_logs[1]));
  }
};

// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
// Middle value, or the mean of the two middle values; 0 for an empty sample.
double median(std::vector<double> values);

// Probe number of an anomaly document, or -1 when it is not a probe's.
int64_t probe_number(const loglens::Json& doc);

// Drives one pass of the workload through `p`, which has been set up and
// trained (`model` is what training deployed; d1_tick redeploys it).
template <class Pipeline>
PassResult run_pass(Pipeline& p, const Inputs& in,
                    const loglens::CompositeModel& model) {
  PassResult r;
  const size_t n = in.lines.size();
  const size_t nseg = in.segments;
  const size_t nprobes = in.probe_line.size();
  r.logs = n;
  r.segment_s.assign(nseg, 0.0);
  r.segment_logs.assign(nseg, 0);
  std::vector<Clock::time_point> sent(nprobes), stored(nprobes);
  std::vector<bool> got(nprobes, false);

  // Reads only the anomalies stored since the last call (store ids are
  // dense), so the harness cost per drain does not grow with the run.
  size_t seen = p.anomalies().count();
  auto collect = [&](Clock::time_point at) {
    const size_t count = p.anomalies().count();
    for (; seen < count; ++seen) {
      auto doc = p.anomalies().docs().get(seen);
      if (!doc) continue;
      const int64_t k = probe_number(*doc);
      if (k >= 0 && static_cast<size_t>(k) < nprobes && !got[k]) {
        got[k] = true;
        stored[k] = at;
      }
    }
  };
  auto send = [&](size_t begin, size_t end) {
    p.time_ingest([&] {
      for (size_t i = begin; i < end; ++i) {
        p.send(in.source_of[i], in.lines[i]);
        if (in.probe_of[i] >= 0) sent[in.probe_of[i]] = Clock::now();
      }
    });
  };

  trim_heap();
  const double rss_before = rss_bytes();
  const Clock::time_point t0 = Clock::now();
  auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  in.rate_per_s));
  };
  double busy_s = 0;
  if (!in.open_loop) {
    // Closed loop: hand the pipeline a tenth of the stream, drain, repeat.
    for (size_t s = 0; s < nseg; ++s) {
      const size_t begin = n * s / nseg, end = n * (s + 1) / nseg;
      const Clock::time_point start = Clock::now();
      send(begin, end);
      p.drain();
      const Clock::time_point done = Clock::now();
      r.segment_s[s] = seconds_between(start, done);
      r.segment_logs[s] = end - begin;
      collect(done);
      // A line is handed over at segment start; lateness is how long it
      // then waited for the generator to send it.
      for (size_t i = begin; i < end; ++i) {
        if (in.probe_of[i] >= 0) {
          r.late_ms.push_back(
              1e3 * seconds_between(start, sent[in.probe_of[i]]));
        }
      }
    }
  } else {
    // Open loop: ticks on an absolute schedule, so a slow drain makes later
    // lines late instead of slowing the offered rate.
    size_t next = 0;
    for (uint64_t tick = 0; next < n; ++tick) {
      std::this_thread::sleep_until(t0 + tick * kTickPeriod);
      const Clock::time_point start = Clock::now();
      if (tick > 0 && tick % kDeployEveryTicks == 0) p.deploy(model);
      size_t end = next;
      while (end < n && due(end) <= start) ++end;
      if (end > next) {
        r.late_ms.push_back(1e3 * seconds_between(due(next), start));
        send(next, end);
      }
      p.drain();
      const Clock::time_point done = Clock::now();
      const double tick_s = seconds_between(start, done);
      busy_s += tick_s;
      const size_t s = std::min(nseg - 1, next * nseg / n);
      r.segment_s[s] += tick_s;
      r.segment_logs[s] += end - next;
      collect(done);
      next = end;
    }
  }
  const Clock::time_point flush_start = Clock::now();
  r.open_events_end = p.open_events();
  p.heartbeat_advance(kFarFutureMs);
  p.drain();
  const Clock::time_point t_end = Clock::now();
  collect(t_end);
  r.wall_s = seconds_between(t0, t_end);
  r.busy_s =
      in.open_loop ? busy_s + seconds_between(flush_start, t_end) : r.wall_s;
  r.rss_growth_bytes = rss_bytes() - rss_before;

  for (size_t k = 0; k < nprobes; ++k) {
    if (!got[k]) {
      ++r.probes_missing;
      continue;
    }
    const Clock::time_point from =
        in.open_loop ? due(in.probe_line[k]) : sent[k];
    r.fresh_ms.push_back(1e3 * seconds_between(from, stored[k]));
  }
  return r;
}

// Single-threaded reference: LogLensService::replay_archive over every
// source, anomaly counts by type name.
struct Reference {
  std::map<std::string, size_t> by_type;
  size_t logs = 0;
  double seconds = 0;
};
Reference make_reference(loglens::LogLensService& service, const Inputs& in);

struct GateResult {
  bool ok = true;
  size_t failed = 0;  // dead letters + unarchived logs + unstored probes
};

// The correctness gate: anomaly counts by type equal the reference, every
// sent log is archived, every injected anomalous event id and every probe is
// reported, and nothing is dead-lettered. Mismatches are printed to stderr.
GateResult check_output(const loglens::AnomalyStore& anomalies,
                        const loglens::LogStore& logs,
                        const loglens::Broker& broker, const Inputs& in,
                        const Reference& ref, const PassResult& r,
                        const char* label);

// Every stored anomaly, serialized and sorted, for comparing two runs.
std::vector<std::string> anomaly_dumps(const loglens::AnomalyStore& store);

// The stock service behind the interface run_pass drives.
class ServicePipeline {
 public:
  explicit ServicePipeline(const Inputs& in) : service_(in.options) {
    for (const auto& s : in.sources) agents_.push_back(service_.make_agent(s));
  }

  loglens::BuildResult train(const std::vector<std::string>& lines) {
    return service_.train(lines);
  }
  void send(uint32_t source, std::string_view line) {
    agents_[source].send_line(line);
  }
  template <class F>
  void time_ingest(F&& f) {
    f();
  }
  void drain() { service_.drain(); }
  void heartbeat_advance(int64_t ms) { service_.heartbeat_advance(ms); }
  void deploy(const loglens::CompositeModel& model) {
    service_.models().deploy(service_.model_name(), model);
  }
  size_t open_events() { return service_.open_events(); }

  loglens::LogLensService& service() { return service_; }
  loglens::AnomalyStore& anomalies() { return service_.anomalies(); }
  loglens::LogStore& log_store() { return service_.log_store(); }
  loglens::Broker& broker() { return service_.broker(); }

 private:
  loglens::LogLensService service_;
  std::vector<loglens::Agent> agents_;
};

}  // namespace perfbench
