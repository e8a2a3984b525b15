// FaultInjector unit tests: deterministic per-site streams, trigger caps,
// delay behavior, and the metrics it reports through — plus the trace
// propagation contract under faults: retried tasks and redelivered messages
// must stay inside the trace that first touched them.
#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/clock.h"
#include "common/sched.h"
#include "streaming/engine.h"
#include "trace/trace.h"

namespace loglens {
namespace {

std::vector<FaultAction> draw(FaultInjector& f, const std::string& site,
                              int n) {
  std::vector<FaultAction> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(f.check(site));
  return out;
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  MetricsRegistry r1, r2;
  FaultInjector a(42, &r1);
  FaultInjector b(42, &r2);
  FaultSpec spec;
  spec.probability = 0.3;
  a.arm(kFaultSiteProduce, spec);
  b.arm(kFaultSiteProduce, spec);
  EXPECT_EQ(draw(a, kFaultSiteProduce, 200), draw(b, kFaultSiteProduce, 200));
  EXPECT_EQ(a.triggered(kFaultSiteProduce), b.triggered(kFaultSiteProduce));
  EXPECT_GT(a.triggered(kFaultSiteProduce), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  MetricsRegistry r1, r2;
  FaultInjector a(1, &r1);
  FaultInjector b(2, &r2);
  FaultSpec spec;
  spec.probability = 0.5;
  a.arm(kFaultSiteFetch, spec);
  b.arm(kFaultSiteFetch, spec);
  EXPECT_NE(draw(a, kFaultSiteFetch, 200), draw(b, kFaultSiteFetch, 200));
}

TEST(FaultInjectorTest, SiteStreamsAreIndependent) {
  // Consulting one site must not perturb another site's decision stream:
  // run B alone, then re-run B with interleaved consults at A.
  MetricsRegistry r1, r2;
  FaultInjector lone(7, &r1);
  FaultSpec spec;
  spec.probability = 0.4;
  lone.arm(kFaultSiteTaskProcess, spec);
  auto expected = draw(lone, kFaultSiteTaskProcess, 100);

  FaultInjector noisy(7, &r2);
  noisy.arm(kFaultSiteTaskProcess, spec);
  noisy.arm(kFaultSiteTaskStart, spec);
  std::vector<FaultAction> got;
  for (int i = 0; i < 100; ++i) {
    noisy.check(kFaultSiteTaskStart);  // extra draws on a different site
    got.push_back(noisy.check(kFaultSiteTaskProcess));
  }
  EXPECT_EQ(got, expected);
}

TEST(FaultInjectorTest, MaxTriggersCapsFiring) {
  MetricsRegistry r;
  FaultInjector f(9, &r);
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_triggers = 3;
  f.arm(kFaultSiteProduce, spec);
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (f.check(kFaultSiteProduce) != FaultAction::kNone) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(f.triggered(kFaultSiteProduce), 3u);
  EXPECT_EQ(f.total_triggered(), 3u);
}

TEST(FaultInjectorTest, DisarmedSiteNeverFires) {
  MetricsRegistry r;
  FaultInjector f(5, &r);
  EXPECT_EQ(f.check(kFaultSiteCheckpointWrite), FaultAction::kNone);
  FaultSpec spec;
  f.arm(kFaultSiteCheckpointWrite, spec);
  EXPECT_EQ(f.check(kFaultSiteCheckpointWrite), FaultAction::kThrow);
  f.disarm(kFaultSiteCheckpointWrite);
  EXPECT_EQ(f.check(kFaultSiteCheckpointWrite), FaultAction::kNone);
  f.arm(kFaultSiteCheckpointWrite, spec);
  f.disarm_all();
  EXPECT_EQ(f.check(kFaultSiteCheckpointWrite), FaultAction::kNone);
  EXPECT_EQ(f.triggered(kFaultSiteCheckpointWrite), 1u);
}

TEST(FaultInjectorTest, HitThrowsFaultError) {
  MetricsRegistry r;
  FaultInjector f(3, &r);
  FaultSpec spec;
  spec.max_triggers = 1;
  f.arm(kFaultSiteTaskFinish, spec);
  EXPECT_THROW(f.hit(kFaultSiteTaskFinish), FaultError);
  EXPECT_NO_THROW(f.hit(kFaultSiteTaskFinish));  // cap spent
}

TEST(FaultInjectorTest, DelayStallsTheCall) {
  MetricsRegistry r;
  FaultInjector f(11, &r);
  FaultSpec spec;
  spec.action = FaultAction::kDelay;
  spec.delay_ms = 30;
  spec.max_triggers = 1;
  f.arm(kFaultSiteFetch, spec);
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(f.check(kFaultSiteFetch), FaultAction::kDelay);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  // A delay is survivable: hit() only throws for kThrow.
  EXPECT_NO_THROW(f.hit(kFaultSiteFetch));
}

// The delay fault is routed through the sched/clock shim: under
// ScopedVirtualDelays it advances the trace clock instead of sleeping, so
// fault-delay chaos tests stop burning real seconds.
TEST(FaultInjectorTest, DelayIsVirtualUnderScopedVirtualDelays) {
  MetricsRegistry r;
  FaultInjector f(11, &r);
  FaultSpec spec;
  spec.action = FaultAction::kDelay;
  spec.delay_ms = 500;  // would be a visible wall-clock stall if real
  spec.max_triggers = 1;
  spec.probability = 1.0;
  f.arm(kFaultSiteFetch, spec);

  sched::ScopedVirtualDelays virtual_delays;
  const uint64_t delayed_before = sched::ScopedVirtualDelays::delayed_us();
  const uint64_t clock_before = trace_clock::now_us();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(f.check(kFaultSiteFetch), FaultAction::kDelay);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  // The full 500ms landed on the virtual clock...
  EXPECT_GE(sched::ScopedVirtualDelays::delayed_us() - delayed_before,
            500000u);
  EXPECT_GE(trace_clock::now_us() - clock_before, 500000u);
  // ...and nowhere near it on the wall clock.
  EXPECT_LT(wall_ms.count(), 250);
}

TEST(FaultInjectorTest, FiredFaultsAreCounted) {
  MetricsRegistry r;
  FaultInjector f(13, &r);
  FaultSpec spec;
  spec.max_triggers = 5;
  f.arm(kFaultSiteProduce, spec);
  for (int i = 0; i < 10; ++i) f.check(kFaultSiteProduce);
  EXPECT_EQ(r.counter("loglens_faults_injected_total",
                      {{"site", kFaultSiteProduce}, {"action", "throw"}})
                .value(),
            5u);
}

// --- Trace propagation under faults ---------------------------------------

class TracedFaultsTest : public ::testing::Test {
 protected:
  TracedFaultsTest() : was_enabled_(trace::enabled()) {
    trace::set_enabled(true);
  }
  ~TracedFaultsTest() override { trace::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

// A task whose process() throws on the first N calls per message (via the
// injector), exercising the engine's retry loop while spans are recorded.
class CountingTask : public PartitionTask {
 public:
  explicit CountingTask(size_t) {}
  void process(const Message& m, TaskContext& ctx) override {
    Message out = m;
    ctx.emit(std::move(out));
  }
};

// Engine task retries keep every span of the batch in one trace, parented
// under the caller's span — a retried partition must not fork a new trace.
TEST_F(TracedFaultsTest, EngineRetriesStayInOneTrace) {
  MetricsRegistry registry;
  FaultInjector faults(21, &registry);
  FaultSpec process;
  process.probability = 1.0;
  process.max_triggers = 2;  // < task_max_attempts=4: retried, then succeeds
  faults.arm(kFaultSiteTaskProcess, process);

  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 2;
  opts.stage = "tracedstage";
  opts.metrics = &registry;
  opts.faults = &faults;
  opts.retry_base_ms = 0;
  opts.retry_cap_ms = 0;
  StreamEngine engine(opts, [](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<CountingTask>(p);
  });

  trace::TraceContext caller;
  caller.trace_id = trace::new_trace_id();
  caller.span_id = trace::new_span_id();
  trace::ContextScope scope(caller);

  std::vector<Message> batch;
  for (int i = 0; i < 8; ++i) {
    Message m;
    m.key = "k" + std::to_string(i);
    m.value = std::to_string(i);
    m.tag = MessageTag::kData;
    batch.push_back(std::move(m));
  }
  BatchResult result = engine.run_batch(std::move(batch));
  EXPECT_GT(result.task_retries, 0u);  // the fault really fired
  EXPECT_EQ(result.outputs.size(), 8u);

  auto spans = registry.take_trace_spans();
  ASSERT_FALSE(spans.empty());
  uint64_t batch_span = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, caller.trace_id)
        << span.name << " escaped the caller's trace";
    if (span.name == "tracedstage.batch") {
      EXPECT_EQ(span.parent_id, caller.span_id);
      batch_span = span.span_id;
    }
  }
  ASSERT_NE(batch_span, 0u) << "no batch span recorded";
  // Retried partitions still record exactly one task span each.
  size_t task_spans = 0;
  for (const auto& span : spans) {
    if (span.name == "tracedstage.task") ++task_spans;
  }
  EXPECT_EQ(task_spans, 2u);
}

// Broker-level produce retries (the client-style loop inside produce) stamp
// the message once: the delivered copy carries the producing span's trace
// identity and a fresh enqueue timestamp.
TEST_F(TracedFaultsTest, FaultedProduceStampsTraceOnce) {
  MetricsRegistry registry;
  FaultInjector faults(31, &registry);
  FaultSpec produce;
  produce.probability = 1.0;
  produce.max_triggers = 3;  // < the broker's 5 internal attempts
  faults.arm(kFaultSiteProduce, produce);

  Broker broker(&registry, &faults);
  trace::TraceContext producer;
  producer.trace_id = trace::new_trace_id();
  producer.span_id = trace::new_span_id();
  trace::ContextScope scope(producer);

  Message m;
  m.key = "k";
  m.value = "v";
  m.tag = MessageTag::kData;
  ASSERT_TRUE(broker.produce("t", std::move(m)).ok());
  EXPECT_GT(faults.triggered(kFaultSiteProduce), 0u);

  Consumer consumer(broker, "t");
  auto got = consumer.poll(10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].trace_id, producer.trace_id);
  EXPECT_EQ(got[0].parent_span, producer.span_id);
  EXPECT_NE(got[0].enqueue_us, 0u);
}

// At-least-once redelivery: a consumer seeked back re-reads the same
// message with its trace identity intact — the retry is visible as the
// same trace, not a new one. A stage re-publishing that message keeps the
// trace id but re-stamps the queue-wait epoch.
TEST_F(TracedFaultsTest, RedeliveryPreservesTraceIdentity) {
  MetricsRegistry registry;
  Broker broker(&registry, nullptr);

  trace::TraceContext producer;
  producer.trace_id = trace::new_trace_id();
  producer.span_id = trace::new_span_id();
  {
    trace::ContextScope scope(producer);
    Message m;
    m.key = "k";
    m.value = "v";
    m.tag = MessageTag::kData;
    ASSERT_TRUE(broker.produce("t", std::move(m)).ok());
  }

  Consumer consumer(broker, "t");
  auto checkpoint = consumer.offsets();
  auto first = consumer.poll(10);
  ASSERT_EQ(first.size(), 1u);

  consumer.seek(checkpoint);  // crash-recovery rewind
  auto redelivered = consumer.poll(10);
  ASSERT_EQ(redelivered.size(), 1u);
  EXPECT_EQ(redelivered[0].trace_id, first[0].trace_id);
  EXPECT_EQ(redelivered[0].parent_span, first[0].parent_span);
  EXPECT_EQ(redelivered[0].seq, first[0].seq);

  // Downstream re-publication (e.g. parser -> detector hop after recovery):
  // the trace id survives, but enqueue_us is re-stamped for the new queue.
  trace::TraceContext stage;
  stage.trace_id = redelivered[0].trace_id;
  stage.span_id = trace::new_span_id();
  trace::ContextScope scope(stage);
  Message repub = redelivered[0];
  const uint64_t old_enqueue = repub.enqueue_us;
  ASSERT_TRUE(broker.produce("t2", std::move(repub)).ok());
  Consumer next(broker, "t2");
  auto hop = next.poll(10);
  ASSERT_EQ(hop.size(), 1u);
  EXPECT_EQ(hop[0].trace_id, producer.trace_id);
  EXPECT_EQ(hop[0].parent_span, producer.span_id)
      << "a message that already carries a trace keeps its original parent";
  EXPECT_GE(hop[0].enqueue_us, old_enqueue);
}

}  // namespace
}  // namespace loglens
