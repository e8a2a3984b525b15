// Deterministic schedule exploration over the instrumented concurrent core
// (docs/STATIC_ANALYSIS.md §5).
//
// Each test replays a known-racy scenario across a range of PCT seeds; one
// seed names exactly one thread interleaving, so any failure is reproduced
// by re-running with the printed seed:
//
//   LOGLENS_SCHED_SEED=<seed> ./sched_explorer_test
//   ./sched_explorer_test --sched-seed=<seed>
//
// The seed count comes from LOGLENS_SCHED_SEEDS (CI runs 200; the local
// default keeps the suite fast). Invariant violations print the failing
// seed and a replay line to stderr and to $LOGLENS_SCHED_FAILURE_FILE;
// controller-detected failures (deadlock, step bound, stall) abort with the
// same information plus the schedule-trace tail.
//
// When the build compiled the schedule points out (release tier-1 runs),
// every scenario degrades to a plain uncontrolled smoke run: same code, OS
// scheduling, one iteration — the test still guards against gross breakage
// without pretending to explore schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/lock_rank.h"
#include "common/sched.h"
#include "datagen/datasets.h"
#include "metrics/metrics.h"
#include "service/service.h"
#include "streaming/broadcast.h"
#include "streaming/engine.h"

namespace loglens {
namespace {

// Seed pinned on the command line / environment; 0 = explore a range.
std::optional<uint64_t> g_pinned_seed;

struct SeedRange {
  uint64_t first = 1;
  uint64_t count = 1;
};

// The seed range a scenario explores: the pinned seed alone when one was
// given, otherwise [1, N] with N from LOGLENS_SCHED_SEEDS (default
// `default_count`, scaled down for intrinsically expensive scenarios by the
// caller).
SeedRange seed_range(uint64_t default_count) {
  if (g_pinned_seed) return {*g_pinned_seed, 1};
  // NOLINTNEXTLINE(concurrency-mt-unsafe) - read before any thread spawns
  if (const char* env = std::getenv("LOGLENS_SCHED_SEEDS")) {
    const uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return {1, n};
  }
  return {1, default_count};
}

// Prints an invariant violation with its reproducing seed to stderr (and to
// $LOGLENS_SCHED_FAILURE_FILE for CI artifact upload). The gtest failure is
// raised at the call site so the test name stays attached.
std::string report_violation(const char* scenario, uint64_t seed,
                             const std::string& what) {
  std::string msg = "sched_explorer: invariant violation\n  scenario=";
  msg += scenario;
  msg += " seed=" + std::to_string(seed);
  msg += "\n  replay: LOGLENS_SCHED_SEED=" + std::to_string(seed) +
         " ./sched_explorer_test  (or --sched-seed=" + std::to_string(seed) +
         ")\n  " + what + "\n";
  std::fputs(msg.c_str(), stderr);
  // NOLINTNEXTLINE(concurrency-mt-unsafe) - tests read env single-threaded
  if (const char* path = std::getenv("LOGLENS_SCHED_FAILURE_FILE")) {
    if (std::FILE* f = std::fopen(path, "ae")) {
      std::fputs(msg.c_str(), f);
      std::fclose(f);
    }
  }
  return msg;
}

// Runs `body` under a controller seeded with `seed` and returns the
// schedule-trace hash. Without compiled-in points (release tier-1) the body
// runs uncontrolled and the hash is 0.
uint64_t run_seed(uint64_t seed, sched::Options options,
                  const std::function<void()>& body) {
  if (!sched::points_compiled_in()) {
    body();
    return 0;
  }
  options.seed = seed;
  sched::ScheduleController controller(options);
  controller.attach();
  body();
  controller.detach();
  return controller.trace_hash();
}

// Default exploration knobs for the pipeline scenarios: a horizon on the
// order of a small scenario's step count so the d priority-change points
// actually land inside it.
sched::Options scenario_options() {
  sched::Options o;
  o.priority_change_points = 3;
  o.change_point_horizon = 2000;
  o.max_steps = 300000;
  return o;
}

// Drives one scenario across the seed range, failing (with a replayable
// seed) on the first violation. `seed_divisor` scales the explored range
// down for intrinsically expensive scenarios (a pinned seed always runs).
void explore(const char* name, uint64_t default_seeds, sched::Options options,
             const std::function<std::string()>& scenario,
             uint64_t seed_divisor = 1) {
  SeedRange range = seed_range(default_seeds);
  if (!g_pinned_seed && seed_divisor > 1) {
    range.count = std::max<uint64_t>(1, range.count / seed_divisor);
  }
  if (!sched::points_compiled_in()) range.count = 1;  // smoke mode
  for (uint64_t seed = range.first; seed < range.first + range.count; ++seed) {
    std::string err;
    (void)run_seed(seed, options, [&] { err = scenario(); });
    if (!err.empty()) {
      FAIL() << report_violation(name, seed, err);
    }
  }
}

// --- scenario 1: bursty producer vs slow blocking consumer ---------------
//
// Races Broker::produce's end-offset publish + waiter notify against
// Consumer::poll_blocking's check-register-park dance (the historical lost
// -wakeup shape). Invariants: nothing is lost, per-key FIFO holds.
std::string produce_vs_slow_sink() {
  constexpr size_t kMessages = 12;
  Broker broker;
  (void)broker.create_topic("in");
  std::thread producer = sched::spawn_named("producer", [&broker] {
    for (size_t i = 0; i < kMessages; ++i) {
      Message m;
      m.key = "k" + std::to_string(i % 3);
      m.value = std::to_string(i);
      m.source = "sched";
      (void)broker.produce("in", std::move(m));
      if (i % 4 == 3) sched::sleep_for_ms(1);  // bursty, not steady
    }
  });
  Consumer consumer(broker, "in");
  std::vector<Message> got;
  int empty_polls = 0;
  while (got.size() < kMessages && empty_polls < 400) {
    auto batch = consumer.poll_blocking(/*max=*/4, /*timeout_ms=*/5);
    if (batch.empty()) ++empty_polls;
    for (auto& m : batch) got.push_back(std::move(m));
  }
  {
    sched::BlockingRegion joining;
    producer.join();
  }
  for (auto batch = consumer.poll(kMessages); !batch.empty();
       batch = consumer.poll(kMessages)) {
    for (auto& m : batch) got.push_back(std::move(m));
  }
  if (got.size() != kMessages) {
    return "lost messages: delivered " + std::to_string(got.size()) + " of " +
           std::to_string(kMessages);
  }
  std::map<std::string, int> last_per_key;
  for (const Message& m : got) {
    const int v = std::stoi(m.value);
    auto it = last_per_key.find(m.key);
    if (it != last_per_key.end() && v < it->second) {
      return "per-key FIFO violated: key " + m.key + " delivered " +
             std::to_string(v) + " after " + std::to_string(it->second);
    }
    last_per_key[m.key] = v;
  }
  return "";
}

TEST(SchedExplorer, ProduceVsSlowSink) {
  explore("produce_vs_slow_sink", 25, scenario_options(),
          produce_vs_slow_sink);
}

// --- scenario 2: control-op drain vs run_batch ---------------------------
//
// A driver thread enqueues rebroadcasts while batches run. The engine's
// contract: controls apply *between* micro-batches, so within one batch
// every partition observes the same model version, and versions never go
// backwards.
class VersionProbeTask : public PartitionTask {
 public:
  VersionProbeTask(Broadcast<int>& model,
                   std::vector<std::vector<int>>& seen)
      : model_(model), seen_(seen) {}

  void on_batch_start(TaskContext& ctx) override {
    // The worker-side pull path (cache probe, driver pull) is the race
    // under test; the broadcast payload doubles as its version.
    seen_[ctx.partition()].push_back(*model_.value(ctx.partition()));
  }
  void process(const Message& m, TaskContext& ctx) override {
    const int now = *model_.value(ctx.partition());
    if (now != seen_[ctx.partition()].back()) {
      torn_.store(true, std::memory_order_relaxed);
    }
    Message out = m;
    ctx.emit(std::move(out));
  }

  static std::atomic<bool> torn_;

 private:
  Broadcast<int>& model_;
  std::vector<std::vector<int>>& seen_;
};

std::atomic<bool> VersionProbeTask::torn_{false};

std::string control_drain_vs_run_batch() {
  constexpr size_t kPartitions = 2;
  constexpr int kBatches = 6;
  constexpr int kUpdates = 5;
  std::vector<std::vector<int>> seen(kPartitions);
  Broadcast<int> model(/*id=*/1, /*value=*/0, kPartitions);
  VersionProbeTask::torn_.store(false);
  MetricsRegistry registry;
  EngineOptions opts;
  opts.partitions = kPartitions;
  opts.workers = 2;
  opts.metrics = &registry;
  opts.partitioner = [](const Message& m, size_t n) {
    return static_cast<size_t>(std::stoul(m.key)) % n;
  };
  StreamEngine engine(opts, [&](size_t) {
    return std::make_unique<VersionProbeTask>(model, seen);
  });
  std::thread updater = sched::spawn_named("updater", [&] {
    for (int k = 1; k <= kUpdates; ++k) {
      engine.enqueue_control(
          [&model, k] { model.update(std::make_shared<const int>(k)); });
      sched::sleep_for_ms(1);
    }
  });
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Message> input;
    for (size_t k = 0; k < 2 * kPartitions; ++k) {
      Message m;
      m.key = std::to_string(k);
      m.value = "x";
      input.push_back(std::move(m));
    }
    BatchResult r = engine.run_batch(std::move(input));
    if (r.input_records != 2 * kPartitions) {
      return "batch dropped input: " + std::to_string(r.input_records);
    }
  }
  {
    sched::BlockingRegion joining;
    updater.join();
  }
  (void)engine.run_batch({});  // drain any still-pending controls
  if (model.version() != kUpdates) {
    return "expected " + std::to_string(kUpdates) +
           " rebroadcasts applied, version is " +
           std::to_string(model.version());
  }
  if (VersionProbeTask::torn_.load()) {
    return "a batch observed two model versions (mid-batch rebroadcast)";
  }
  for (size_t p = 0; p < kPartitions; ++p) {
    if (seen[p].size() != seen[0].size()) {
      return "partitions ran different batch counts";
    }
  }
  for (size_t b = 0; b < seen[0].size(); ++b) {
    for (size_t p = 1; p < kPartitions; ++p) {
      if (seen[p][b] != seen[0][b]) {
        return "batch " + std::to_string(b) +
               " saw version skew across partitions: " +
               std::to_string(seen[0][b]) + " vs " +
               std::to_string(seen[p][b]);
      }
    }
    if (b > 0 && seen[0][b] < seen[0][b - 1]) {
      return "model version went backwards across batches";
    }
  }
  return "";
}

TEST(SchedExplorer, ControlDrainVsRunBatch) {
  explore("control_drain_vs_run_batch", 25, scenario_options(),
          control_drain_vs_run_batch);
}

// --- scenario 3: recover() vs in-flight batches --------------------------
//
// A live service (background runners) takes a recover() — checkpoint
// restore + offset rewind — while batches are in flight. The service must
// come out unparked and the recovery must count exactly once. The model is
// trained once (uncontrolled) and restored per seed, so each seed pays for
// the race, not for pattern discovery.
class RecoverScenario {
 public:
  RecoverScenario()
      : dataset_(make_d1(0.02)),
        base_checkpoint_((std::filesystem::temp_directory_path() /
                          "loglens_sched_base_ckpt.json")
                             .string()) {
    ServiceOptions opts = service_options("");
    LogLensService trainer(opts);
    trainer.train(dataset_.training);
    if (!trainer.checkpoint(base_checkpoint_).ok()) {
      std::abort();  // setup failure, not a schedule finding
    }
    const size_t stream = std::min<size_t>(dataset_.testing.size(), 24);
    first_.assign(dataset_.testing.begin(),
                  dataset_.testing.begin() + stream / 2);
    second_.assign(dataset_.testing.begin() + stream / 2,
                   dataset_.testing.begin() + stream);
  }

  ~RecoverScenario() { std::remove(base_checkpoint_.c_str()); }

  std::string run() {
    const std::string ckpt = (std::filesystem::temp_directory_path() /
                              "loglens_sched_recover_ckpt.json")
                                 .string();
    MetricsRegistry registry;
    ServiceOptions opts = service_options(ckpt);
    opts.metrics = &registry;
    LogLensService service(opts);
    if (!service.restore(base_checkpoint_).ok()) {
      return "restore of the pre-trained checkpoint failed";
    }
    Agent agent = service.make_agent("D1");
    agent.replay(first_);
    service.drain();
    if (!service.checkpoint(ckpt).ok()) return "checkpoint failed";

    service.start();
    agent.replay(second_);
    Status recovered = service.recover();  // races the in-flight batches
    if (!recovered.ok()) {
      return "recover() failed: " + recovered.message();
    }
    // Let the rewound redelivery flow for a bounded stretch of virtual
    // time, then quiesce.
    for (int i = 0; i < 50 && !service.failed(); ++i) {
      sched::sleep_for_ms(2);
    }
    service.stop();
    service.drain();
    std::remove(ckpt.c_str());
    if (service.failed()) {
      return "service parked on a fatal batch after recover()";
    }
    if (service.recoveries() != 1) {
      return "expected exactly one recovery, counted " +
             std::to_string(service.recoveries());
    }
    return "";
  }

 private:
  static ServiceOptions service_options(const std::string& checkpoint_path) {
    ServiceOptions opts;
    opts.build.discovery = recommended_discovery("D1");
    opts.parser_partitions = 1;
    opts.detector_partitions = 1;
    opts.workers = 1;
    opts.checkpoint_path = checkpoint_path;
    return opts;
  }

  Dataset dataset_;
  std::string base_checkpoint_;
  std::vector<std::string> first_;
  std::vector<std::string> second_;
};

TEST(SchedExplorer, RecoverVsInFlightBatches) {
  RecoverScenario scenario;
  sched::Options opts = scenario_options();
  opts.change_point_horizon = 20000;
  opts.max_steps = 2000000;
  // The full-pipeline scenario costs far more steps per seed than the toy
  // ones; a quarter of the seed budget keeps the suite inside its timeout
  // while still exploring dozens of interleavings in CI.
  explore("recover_vs_inflight", 24, opts,
          [&scenario] { return scenario.run(); }, /*seed_divisor=*/4);
}

// --- scenario 4: redelivery (seek) vs batched offset commit --------------
//
// A rewinder thread seeks the consumer back to offset 0 while the owner
// polls. poll's read-fetch-advance is a single critical section, so each
// poll window must be internally coherent (strictly increasing seqs) even
// when a seek lands between polls, and redelivery must converge on exactly
// the full seq set.
std::string redelivery_vs_commit() {
  constexpr size_t kMessages = 10;
  Broker broker;
  (void)broker.create_topic("t");
  for (size_t i = 0; i < kMessages; ++i) {
    Message m;
    m.key = "k";
    m.value = std::to_string(i);
    (void)broker.produce("t", std::move(m));
  }
  Consumer consumer(broker, "t");
  std::atomic<size_t> delivered{0};
  std::atomic<bool> rewound{false};
  std::thread rewinder = sched::spawn_named("rewinder", [&] {
    for (int i = 0; i < 1000 && delivered.load() < kMessages / 2; ++i) {
      sched::sleep_for_ms(1);
    }
    consumer.seek(0);  // redeliver the whole log
    rewound.store(true);
  });
  std::set<int64_t> unique;
  size_t total = 0;
  std::string err;
  for (int spins = 0; spins < 1000; ++spins) {
    auto batch = consumer.poll(4);
    if (batch.empty()) {
      if (rewound.load() && unique.size() == kMessages &&
          consumer.caught_up()) {
        break;
      }
      sched::sleep_for_ms(1);
      continue;
    }
    int64_t prev = -1;
    for (const Message& m : batch) {
      if (m.seq <= prev) {
        err = "incoherent poll window: seq " + std::to_string(m.seq) +
              " after " + std::to_string(prev);
      }
      prev = m.seq;
      unique.insert(m.seq);
      ++total;
    }
    delivered.store(unique.size());
  }
  {
    sched::BlockingRegion joining;
    rewinder.join();
  }
  if (!err.empty()) return err;
  if (unique.size() != kMessages) {
    return "redelivery did not converge: " + std::to_string(unique.size()) +
           " unique seqs of " + std::to_string(kMessages);
  }
  if (total < kMessages) {
    return "at-least-once violated: only " + std::to_string(total) +
           " deliveries";
  }
  return "";
}

TEST(SchedExplorer, RedeliveryVsOffsetCommit) {
  explore("redelivery_vs_commit", 25, scenario_options(),
          redelivery_vs_commit);
}

// --- scenario 5: chunk free on commit vs recover's seek vs in-flight fetch -
//
// A topic three chunks long, with a checkpoint pin inside chunk 1 and the
// runner's consumer already at the end. A reader thread's commits free
// chunk 0 once it passes it; a fetcher reads raw windows straddling the
// chunk 0/1 boundary; the main thread plays recover(): it tries to rewind
// the runner to offset 0, then rewinds it to the pin and replays.
// Invariants: a fetch returns either nothing (its start was already freed)
// or exactly the messages at its offsets; the rewind to 0 succeeds only
// while nothing is freed, and then holds everything; the rewind to the pin
// always succeeds and redelivers every offset from the pin on, in order;
// the low-water mark never passes the pin.
std::string free_vs_seek_vs_fetch() {
  constexpr uint64_t kChunk = Broker::kChunkMessages;
  constexpr uint64_t kTotal = 3 * kChunk;
  constexpr uint64_t kPin = kChunk + 100;
  Broker broker;
  (void)broker.create_topic("t");
  Consumer runner(broker, "t");
  Consumer reader(broker, "t");
  RetentionHold pin(broker, "t");
  if (!pin.move_to(kPin).ok()) return "pin refused on an empty topic";
  (void)broker.produce_batch("t", std::vector<Message>(kTotal));
  while (!runner.poll(kTotal).empty()) continue;

  std::thread read = sched::spawn_named("reader", [&reader] {
    while (!reader.poll(kChunk / 2).empty()) continue;
  });
  std::string fetch_err;
  std::thread fetch = sched::spawn_named("fetcher", [&broker, &fetch_err] {
    for (uint64_t i = 0; i < 4 && fetch_err.empty(); ++i) {
      const uint64_t from = kChunk - 256 + i * 128;
      const auto got = broker.fetch("t", from, 512);
      if (got.empty()) {
        // The mark only rises, so it must already have passed `from`.
        if (broker.low_water("t") <= from) {
          fetch_err = "empty fetch at " + std::to_string(from) +
                      " above the low-water mark";
        }
        continue;
      }
      if (got.size() != 512) fetch_err = "short fetch";
      for (size_t k = 0; k < got.size(); ++k) {
        if (got[k].seq != static_cast<int64_t>(from + k)) {
          fetch_err = "fetch at " + std::to_string(from) + " returned seq " +
                      std::to_string(got[k].seq) + " at index " +
                      std::to_string(k);
          break;
        }
      }
      sched::sleep_for_ms(1);
    }
  });

  std::string err;
  if (runner.seek(0).ok()) {
    // The runner now holds offset 0: nothing may be freed from here on.
    if (broker.low_water("t") != 0) err = "rewound below a freed chunk";
  } else if (broker.low_water("t") == 0) {
    err = "rewind to 0 refused while nothing was freed";
  }
  if (Status s = runner.seek(kPin); !s.ok()) {
    err = "rewind to the pin refused: " + s.message();
  }
  uint64_t next = kPin;
  for (auto batch = runner.poll(kChunk / 2); !batch.empty() && err.empty();
       batch = runner.poll(kChunk / 2)) {
    for (const Message& m : batch) {
      if (m.seq != static_cast<int64_t>(next)) {
        err = "replay delivered seq " + std::to_string(m.seq) +
              ", expected " + std::to_string(next);
        break;
      }
      ++next;
    }
  }
  {
    sched::BlockingRegion joining;
    read.join();
    fetch.join();
  }
  if (!err.empty()) return err;
  if (!fetch_err.empty()) return fetch_err;
  if (next != kTotal) {
    return "replay stopped at " + std::to_string(next) + " of " +
           std::to_string(kTotal);
  }
  if (broker.low_water("t") != kChunk) {
    return "low-water mark " + std::to_string(broker.low_water("t")) +
           " after every reader passed chunk 0; the pin holds chunk 1";
  }
  return "";
}

TEST(SchedExplorer, ChunkFreeVsRecoverSeekVsFetch) {
  explore("free_vs_seek_vs_fetch", 25, scenario_options(),
          free_vs_seek_vs_fetch);
}

// --- scenario 6: late helper wake vs next run_batch vs destruction -------
//
// The engine's caller claims partitions itself and wakes pool helpers to
// claim the rest. Two partitions over two helpers wake one of them, so the
// other is a spare that only a spurious wake brings in. A woken helper may
// be scheduled after the caller has run every partition and returned, after
// the next batch has started, or only once the engine is being destroyed.
// Invariants: every partition runs exactly once per batch, in batch order;
// no task call happens outside the batch it belongs to; destruction right
// after the last batch joins every helper.
class BatchWindowTask : public PartitionTask {
 public:
  BatchWindowTask(std::vector<uint64_t>& runs,
                  const std::atomic<uint64_t>& open_batch,
                  std::atomic<bool>& stray)
      : runs_(runs), open_batch_(open_batch), stray_(stray) {}

  void on_batch_start(TaskContext& ctx) override { check(ctx); }
  void process(const Message&, TaskContext& ctx) override { check(ctx); }
  void on_batch_end(TaskContext& ctx) override {
    check(ctx);
    runs_.push_back(ctx.batch_number());
  }

 private:
  void check(const TaskContext& ctx) {
    if (ctx.batch_number() != open_batch_.load()) stray_.store(true);
  }

  std::vector<uint64_t>& runs_;
  const std::atomic<uint64_t>& open_batch_;
  std::atomic<bool>& stray_;
};

std::string late_helper_vs_next_batch_vs_destruction() {
  constexpr size_t kPartitions = 2;
  constexpr uint64_t kBatches = 4;
  // Each partition's log is written only by the runner that claimed it; the
  // pool's claim and finish hand it from one batch's runner to the next's.
  std::vector<std::vector<uint64_t>> runs(kPartitions);
  std::atomic<uint64_t> open_batch{0};
  std::atomic<bool> stray{false};
  {
    MetricsRegistry registry;
    EngineOptions opts;
    opts.partitions = kPartitions;
    opts.workers = 3;
    opts.metrics = &registry;
    opts.partitioner = [](const Message& m, size_t n) {
      return static_cast<size_t>(std::stoul(m.key)) % n;
    };
    StreamEngine engine(opts, [&](size_t p) {
      return std::make_unique<BatchWindowTask>(runs[p], open_batch, stray);
    });
    for (uint64_t b = 1; b <= kBatches; ++b) {
      // Odd batches carry input for partition 0 only.
      std::vector<Message> input;
      for (size_t k = 0; k < (b % 2 == 1 ? 1 : kPartitions); ++k) {
        Message m;
        m.key = std::to_string(k);
        input.push_back(std::move(m));
      }
      const size_t sent = input.size();
      open_batch.store(b);
      BatchResult r = engine.run_batch(std::move(input));
      open_batch.store(0);
      if (r.input_records != sent) {
        return "batch " + std::to_string(b) + " dropped input";
      }
    }
  }  // destroyed right after the last batch, helpers possibly mid-wake
  if (stray.load()) {
    return "a task call ran outside its batch (a late helper touched a "
           "finished batch)";
  }
  for (size_t p = 0; p < kPartitions; ++p) {
    if (runs[p].size() != kBatches) {
      return "partition " + std::to_string(p) + " ran " +
             std::to_string(runs[p].size()) + " times over " +
             std::to_string(kBatches) + " batches";
    }
    for (uint64_t b = 0; b < kBatches; ++b) {
      if (runs[p][b] != b + 1) {
        return "partition " + std::to_string(p) + " ran batch " +
               std::to_string(runs[p][b]) + " in place of " +
               std::to_string(b + 1);
      }
    }
  }
  return "";
}

TEST(SchedExplorer, LateHelperVsNextBatchVsDestruction) {
  explore("late_helper_vs_next_batch_vs_destruction", 25, scenario_options(),
          late_helper_vs_next_batch_vs_destruction);
}

// --- replay determinism --------------------------------------------------
//
// One seed must name one interleaving: running the same scenario twice
// under the same seed yields byte-identical schedule traces (compared via
// the order-sensitive trace hash).
TEST(SchedExplorer, SameSeedSameSchedule) {
  if (!sched::points_compiled_in()) {
    GTEST_SKIP() << "schedule points compiled out in this build";
  }
  const uint64_t seed = g_pinned_seed.value_or(7);
  auto run_once = [&] {
    return run_seed(seed, scenario_options(), [] {
      const std::string err = produce_vs_slow_sink();
      ASSERT_EQ(err, "");
    });
  };
  const uint64_t first = run_once();
  const uint64_t second = run_once();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(first, second)
      << "seed " << seed << " produced two different schedules";
}

// --- planted bugs --------------------------------------------------------
//
// The explorer has to *find* races, not just survive correct code. A
// deliberately racy check-then-act (the fix would be a CAS) must be driven
// to its violation within the seed budget, and the failing seed must
// reproduce deterministically. All accesses are atomic — the bug is purely
// an ordering bug, so the TSan leg stays clean.
struct RacyClaim {
  std::atomic<int> claimed{0};

  void try_claim() {
    if (claimed.load() == 0) {              // check
      LOGLENS_SCHED_POINT("racy.claim_gap");  // the depth-1 window
      claimed.fetch_add(1);                 // act
    }
  }
};

bool planted_bug_fires(uint64_t seed) {
  sched::Options o;
  o.seed = seed;
  o.priority_change_points = 3;
  // The whole scenario is ~a dozen steps; keep the horizon on that scale
  // so the change points can land inside the race window.
  o.change_point_horizon = 24;
  o.max_steps = 20000;
  sched::ScheduleController controller(o);
  controller.attach();
  RacyClaim racy;
  std::thread t1 = sched::spawn_named("claim-1", [&] { racy.try_claim(); });
  std::thread t2 = sched::spawn_named("claim-2", [&] { racy.try_claim(); });
  {
    sched::BlockingRegion joining;
    t1.join();
    t2.join();
  }
  controller.detach();
  return racy.claimed.load() > 1;
}

TEST(SchedExplorer, PlantedOrderingBugFoundWithinSeedBudget) {
  if (!sched::points_compiled_in()) {
    GTEST_SKIP() << "schedule points compiled out in this build";
  }
  constexpr uint64_t kSeedBudget = 64;
  uint64_t failing_seed = 0;
  for (uint64_t seed = 1; seed <= kSeedBudget; ++seed) {
    if (planted_bug_fires(seed)) {
      failing_seed = seed;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u)
      << "planted check-then-act bug not found within " << kSeedBudget
      << " seeds";
  std::fprintf(stderr,
               "sched_explorer: planted bug first fires at seed %llu\n",
               static_cast<unsigned long long>(failing_seed));
  // The whole point of seeded exploration: the finding replays.
  EXPECT_TRUE(planted_bug_fires(failing_seed))
      << "failing seed " << failing_seed << " did not reproduce";
}

// A lost wakeup (predicate set, notify forgotten) must be reported as a
// deadlock with the reproducing seed, not hang until the ctest timeout.
TEST(SchedExplorerDeathTest, LostWakeupReportedAsDeadlock) {
  if (!sched::points_compiled_in()) {
    GTEST_SKIP() << "schedule points compiled out in this build";
  }
  EXPECT_DEATH(
      {
        sched::Options o;
        o.seed = 1;
        o.change_point_horizon = 32;
        sched::ScheduleController controller(o);
        controller.attach();
        RankedMutex flag_mu{lock_rank::kJobState};
        std::condition_variable_any flag_cv;
        bool woken = false;
        RankedMutex done_mu{lock_rank::kTrace};
        std::condition_variable_any done_cv;
        bool done = false;
        std::thread waiter = sched::spawn_named("waiter", [&] {
          {
            RankedMutexLock lock(flag_mu);
            // `woken` is never set: the "signaler" below forgot both the
            // store and the notify, so this wait can never return...
            while (!woken) sched::cv_wait(flag_cv, lock);
          }
          RankedMutexLock lock(done_mu);
          done = true;
          sched::cv_notify_all(done_cv);
        });
        // ...and the main thread waits on the waiter's completion, so every
        // live thread ends up blocked — the controller must call it.
        RankedMutexLock lock(done_mu);
        while (!done) sched::cv_wait(done_cv, lock);
      },
      "deadlock: every live thread is blocked");
}

}  // namespace
}  // namespace loglens

// Custom main: pins a single seed from --sched-seed=N or LOGLENS_SCHED_SEED
// (the replay workflow), and runs death tests in threadsafe mode because
// the statements under test spawn threads.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sched-seed=", 13) == 0) {
      loglens::g_pinned_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe) - read before any thread spawns
  if (const char* env = std::getenv("LOGLENS_SCHED_SEED")) {
    const uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) loglens::g_pinned_seed = seed;
  }
  return RUN_ALL_TESTS();
}
