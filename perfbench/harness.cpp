#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/hash.h"
#include "datagen/datasets.h"

namespace perfbench {

using loglens::AnomalyType;

namespace {

// D1 test-split lines per unit of make_d1 scale (about 3400 events of ~4.3
// logs each); d1_tick sizes its stream from it.
constexpr double kD1LinesPerScale = 14500;

std::string probe_line(size_t k, std::string_view prefix) {
  std::string line(prefix);
  line += kProbeMarker;
  line += std::to_string(k);
  return line;
}

void add_line(Inputs& in, uint32_t source, std::string line, bool probe) {
  in.source_of.push_back(source);
  if (probe) {
    in.probe_of.push_back(static_cast<int32_t>(in.probe_line.size()));
    in.probe_line.push_back(in.lines.size());
  } else {
    in.probe_of.push_back(-1);
  }
  in.lines.push_back(std::move(line));
}

// D1 test stream from source "d1" with a probe line from source "probe"
// after every `probe_every - 1` data lines.
void add_d1_stream(Inputs& in, loglens::Dataset&& ds, size_t probe_every) {
  in.sources = {"d1", "probe"};
  in.anomalous_ids = std::move(ds.anomalous_event_ids);
  for (auto& line : ds.testing) {
    if (in.lines.size() % probe_every == probe_every - 1) {
      add_line(in, 1, probe_line(in.probe_line.size(), "zz unmatched "), true);
    }
    add_line(in, 0, std::move(line), false);
  }
}

// Eight source names, four hashing to each of the two parser partitions,
// ordered so consecutive lines alternate partitions.
std::vector<std::string> split_sources(size_t per_partition) {
  std::vector<std::string> by_part[2];
  for (size_t i = 0; by_part[0].size() < per_partition ||
                     by_part[1].size() < per_partition;
       ++i) {
    std::string name = "os-" + std::to_string(i);
    auto& bucket = by_part[loglens::fnv1a(name) % 2];
    if (bucket.size() < per_partition) bucket.push_back(std::move(name));
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < per_partition; ++i) {
    out.push_back(by_part[0][i]);
    out.push_back(by_part[1][i]);
  }
  return out;
}

}  // namespace

Inputs make_inputs(const std::string& workload, uint64_t seed, double scale) {
  Inputs in;
  in.workload = workload;
  if (workload == "d1_long") {
    // D1 at 30x; the model is trained on a small (2x) training split.
    in.options.build.discovery = loglens::recommended_discovery("D1");
    in.training = loglens::make_d1(2.0, seed).training;
    add_d1_stream(in, loglens::make_d1(30.0 * scale, seed), 200);
  } else if (workload == "d4_parse") {
    // D4 at half paper size: ~200k training and ~200k test lines. 1% of
    // the test lines get a novel suffix (the probes) so no pattern matches.
    in.options.build.discovery = loglens::recommended_discovery("D4");
    loglens::Dataset ds = loglens::make_d4(0.5 * scale, seed);
    in.training = std::move(ds.training);
    in.sources = split_sources(4);
    for (size_t i = 0; i < ds.testing.size(); ++i) {
      const auto source = static_cast<uint32_t>(i % in.sources.size());
      if (i % 100 == 99) {
        add_line(in, source,
                 probe_line(in.probe_line.size(), ds.testing[i] + " "), true);
      } else {
        add_line(in, source, std::move(ds.testing[i]), false);
      }
    }
  } else if (workload == "d1_tick") {
    // D1 offered at 20k logs/s for about 5 s; every 50th line is a probe, so
    // a pass has ~2000 probes and its p99 has ~20 samples beyond it.
    in.open_loop = true;
    in.rate_per_s = 20000;
    in.options.build.discovery = loglens::recommended_discovery("D1");
    in.training = loglens::make_d1(2.0, seed).training;
    const double data_lines = in.rate_per_s * 5.0 * scale * 49 / 50;
    add_d1_stream(in, loglens::make_d1(data_lines / kD1LinesPerScale, seed),
                  50);
  }
  return in;
}

namespace {

// Value in kB of a "Key:   123 kB" line of /proc/self/status.
double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

}  // namespace

double rss_bytes() { return status_kb("VmRSS") * 1024.0; }
double peak_rss_bytes() { return status_kb("VmHWM") * 1024.0; }

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

int64_t probe_number(const loglens::Json& doc) {
  if (doc.get_string("type") !=
      loglens::anomaly_type_name(AnomalyType::kUnparsedLog)) {
    return -1;
  }
  const loglens::Json* logs = doc.find("logs");
  if (logs == nullptr || !logs->is_array() || logs->as_array().empty() ||
      !logs->as_array().front().is_string()) {
    return -1;
  }
  const std::string& line = logs->as_array().front().as_string();
  const size_t at = line.rfind(kProbeMarker);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + kProbeMarker.size(), nullptr, 10);
}

Reference make_reference(loglens::LogLensService& service, const Inputs& in) {
  Reference ref;
  const Clock::time_point start = Clock::now();
  for (const auto& source : in.sources) {
    auto replay = service.replay_archive(source);
    if (!replay.ok()) continue;  // a source with no archived logs
    ref.logs += replay->logs;
    for (const auto& a : replay->anomalies) {
      ++ref.by_type[std::string(loglens::anomaly_type_name(a.type))];
    }
  }
  ref.seconds = seconds_between(start, Clock::now());
  return ref;
}

GateResult check_output(const loglens::AnomalyStore& anomalies,
                        const loglens::LogStore& logs,
                        const loglens::Broker& broker, const Inputs& in,
                        const Reference& ref, const PassResult& r,
                        const char* label) {
  GateResult g;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "GATE FAIL [%s %s]: %s\n", in.workload.c_str(), label,
                 what.c_str());
    g.ok = false;
  };

  std::map<std::string, size_t> by_type;
  std::set<std::string> event_ids;
  for (const auto& a : anomalies.all()) {
    ++by_type[std::string(loglens::anomaly_type_name(a.type))];
    if (!a.event_id.empty()) event_ids.insert(a.event_id);
  }
  if (by_type != ref.by_type) {
    for (const auto& [type, count] : ref.by_type) {
      if (by_type[type] != count) {
        fail(type + ": stored " + std::to_string(by_type[type]) +
             ", reference " + std::to_string(count));
      }
    }
    for (const auto& [type, count] : by_type) {
      if (!ref.by_type.count(type)) {
        fail(type + ": stored " + std::to_string(count) + ", reference 0");
      }
    }
  }
  for (const auto& id : in.anomalous_ids) {
    if (!event_ids.count(id)) fail("injected anomaly " + id + " not reported");
  }
  const size_t archived = logs.size();
  if (archived != r.logs) {
    fail("archived " + std::to_string(archived) + " of " +
         std::to_string(r.logs) + " sent logs");
  }
  if (r.probes_missing != 0) {
    fail(std::to_string(r.probes_missing) + " probes never stored");
  }
  const uint64_t dead = broker.end_offset(in.options.dead_letter_topic, 0);
  if (dead != 0) fail(std::to_string(dead) + " dead letters");
  g.failed = static_cast<size_t>(dead) + r.probes_missing +
             (archived < r.logs ? r.logs - archived : 0);
  return g;
}

std::vector<std::string> anomaly_dumps(const loglens::AnomalyStore& store) {
  std::vector<std::string> out;
  for (const auto& a : store.all()) out.push_back(a.to_json().dump());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
