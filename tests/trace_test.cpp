// Tracing subsystem unit tests: the SPSC span ring, context propagation,
// the clock shim, the registry's span path, report attribution, and the
// Chrome trace-event export.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "json/json.h"
#include "metrics/metrics.h"
#include "trace/report.h"

namespace loglens {
namespace {

// Every test in this file runs with tracing on and restores the switch, so
// test order (and a developer's LOGLENS_TRACE) cannot leak between cases.
class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : was_enabled_(trace::enabled()) { trace::set_enabled(true); }
  ~TraceTest() override { trace::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

trace::Span make_span(const std::string& name, uint64_t span_id,
                      uint64_t parent, uint64_t start_us,
                      uint64_t duration_us, uint64_t trace_id = 1) {
  trace::Span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_id = parent;
  s.start_us = start_us;
  s.duration_us = duration_us;
  s.name = name;
  return s;
}

TEST_F(TraceTest, IdGeneratorsNeverReturnZero) {
  uint64_t prev_trace = trace::new_trace_id();
  uint64_t prev_span = trace::new_span_id();
  EXPECT_NE(prev_trace, 0u);
  EXPECT_NE(prev_span, 0u);
  for (int i = 0; i < 100; ++i) {
    uint64_t t = trace::new_trace_id();
    uint64_t s = trace::new_span_id();
    EXPECT_GT(t, prev_trace);
    EXPECT_GT(s, prev_span);
    prev_trace = t;
    prev_span = s;
  }
}

TEST_F(TraceTest, ContextScopesNestAndRestore) {
  EXPECT_EQ(trace::current().trace_id, 0u);
  trace::TraceContext outer{7, 70, 1};
  {
    trace::ContextScope a(outer);
    EXPECT_EQ(trace::current().trace_id, 7u);
    EXPECT_EQ(trace::current().span_id, 70u);
    {
      trace::TraceContext inner{8, 80, 2};
      trace::ContextScope b(inner);
      EXPECT_EQ(trace::current().trace_id, 8u);
      EXPECT_EQ(trace::current().batch, 2);
    }
    EXPECT_EQ(trace::current().trace_id, 7u);
    EXPECT_EQ(trace::current().batch, 1);
  }
  EXPECT_EQ(trace::current().trace_id, 0u);
}

TEST_F(TraceTest, ClockShimUsesInstalledSource) {
  trace_clock::set_source(+[]() -> uint64_t { return 12345; });
  EXPECT_EQ(trace_clock::now_us(), 12345u);
  trace_clock::set_source(nullptr);
  uint64_t a = trace_clock::now_us();
  uint64_t b = trace_clock::now_us();
  EXPECT_LE(a, b);  // real clock is monotonic again
}

TEST_F(TraceTest, SpanBufferDrainsInFifoOrder) {
  trace::SpanBuffer buffer(8);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(buffer.push(make_span("s" + std::to_string(i), i + 1, 0,
                                      i * 10, 5)));
  }
  std::vector<trace::Span> out;
  buffer.drain_into(out);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].name, "s" + std::to_string(i));
  }
  EXPECT_EQ(buffer.dropped(), 0u);

  // Drained slots are reusable.
  EXPECT_TRUE(buffer.push(make_span("again", 99, 0, 0, 1)));
  out.clear();
  buffer.drain_into(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, "again");
}

TEST_F(TraceTest, SpanBufferFullDropsNewestAndCounts) {
  trace::SpanBuffer buffer(4);
  EXPECT_EQ(buffer.capacity(), 4u);
  size_t accepted = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    if (buffer.push(make_span("s" + std::to_string(i), i + 1, 0, i, 1))) {
      ++accepted;
    }
  }
  EXPECT_EQ(buffer.dropped(), 10 - accepted);
  EXPECT_GT(buffer.dropped(), 0u);
  std::vector<trace::Span> out;
  buffer.drain_into(out);
  EXPECT_EQ(out.size(), accepted);
  // Drop-newest: the survivors are the oldest pushes, in order.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].name, "s" + std::to_string(i));
  }
}

TEST_F(TraceTest, CollectorRoundTripsSpans) {
  trace::SpanCollector collector;
  for (uint64_t i = 0; i < 20; ++i) {
    collector.record(make_span("c" + std::to_string(i), i + 1, 0, i, 1));
  }
  auto drained = collector.drain();
  ASSERT_EQ(drained.size(), 20u);
  EXPECT_EQ(drained.front().name, "c0");
  EXPECT_EQ(drained.back().name, "c19");
  EXPECT_EQ(collector.dropped(), 0u);
  EXPECT_TRUE(collector.drain().empty());
}

TEST_F(TraceTest, RegistryRecordSpanInheritsCurrentContext) {
  MetricsRegistry registry;
  trace::TraceContext ctx;
  ctx.trace_id = 42;
  ctx.span_id = 420;
  ctx.batch = 3;
  trace::ContextScope scope(ctx);
  registry.record_span("hop", 100, 50);
  auto spans = registry.take_trace_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "hop");
  EXPECT_EQ(spans[0].trace_id, 42u);
  EXPECT_EQ(spans[0].parent_id, 420u);
  EXPECT_EQ(spans[0].batch, 3);
  EXPECT_NE(spans[0].span_id, 0u);
  EXPECT_EQ(registry.spans_dropped(), 0u);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  MetricsRegistry registry;
  trace::set_enabled(false);
  registry.record_span("invisible", 0, 1);
  registry.record_span(make_span("also-invisible", 1, 0, 0, 1));
  trace::set_enabled(true);
  EXPECT_TRUE(registry.take_trace_spans().empty());
  registry.record_span("visible", 0, 1);
  EXPECT_EQ(registry.take_trace_spans().size(), 1u);
}

// The attribution contract the bench gate enforces: pipeline children sum
// into components, the engine batch decomposes into phases, and unclassified
// children (e.g. the downstream stage's chained pipeline span, or the sink
// flush) do not inflate the attributed time.
TEST_F(TraceTest, BuildReportAttributesPipelineComponents) {
  std::vector<trace::Span> spans;
  // parser.pipeline [100, 300), batch 0; queue_wait [40, 100) before it.
  spans.push_back(make_span("parser.pipeline", 10, 0, 100, 200));
  spans.back().batch = 0;
  spans.push_back(make_span("parser.queue_wait", 11, 10, 40, 60));
  spans.push_back(make_span("parser.publish", 12, 10, 280, 20));
  spans.push_back(make_span("parser.batch", 13, 10, 100, 180));
  // Phases under the batch: 10 + 20 + 100 + 10 leaves 40us of batch_other.
  spans.push_back(make_span("parser.control", 14, 13, 100, 10));
  spans.push_back(make_span("parser.route", 15, 13, 110, 20));
  spans.push_back(make_span("parser.exec", 16, 13, 130, 100));
  spans.push_back(make_span("parser.collect", 17, 13, 260, 10));
  // Parallel-section detail under exec (overlaps; informational only).
  spans.push_back(make_span("parser.pool_wait", 18, 16, 130, 5));
  spans.push_back(make_span("parser.task", 19, 16, 135, 90));
  // Children that must NOT be attributed: the downstream pipeline span that
  // chains to this one, and the sink flush.
  spans.push_back(make_span("detector.pipeline", 20, 10, 310, 100));
  spans.back().batch = 0;
  spans.push_back(make_span("sink.flush", 21, 20, 415, 30));

  trace::Report report = trace::build_report(spans, 0);
  EXPECT_EQ(report.span_count, spans.size());
  ASSERT_EQ(report.stages.size(), 2u);  // parser + the chained detector

  const trace::StageReport& parser = report.stages[0];
  EXPECT_EQ(parser.stage, "parser");
  EXPECT_EQ(parser.batches, 1u);
  // total = pipeline end (300) - queue_wait start (40).
  EXPECT_EQ(parser.total_us, 260u);
  // queue_wait 60 + publish 20 + phases 140 + batch_other 40 = 260.
  EXPECT_EQ(parser.attributed_us, 260u);
  EXPECT_DOUBLE_EQ(parser.coverage, 1.0);
  EXPECT_EQ(parser.task_us, 90u);
  EXPECT_EQ(parser.pool_wait_us, 5u);
  uint64_t batch_other = 0;
  for (const auto& comp : parser.components) {
    if (comp.name == "batch_other") batch_other = comp.total_us;
    EXPECT_NE(comp.name, "other");  // fully attributed
  }
  EXPECT_EQ(batch_other, 40u);

  // The detector pipeline had no classified children: everything lands in
  // "other" and nothing is attributed.
  const trace::StageReport& detector = report.stages[1];
  EXPECT_EQ(detector.stage, "detector");
  EXPECT_EQ(detector.total_us, 100u);
  EXPECT_EQ(detector.attributed_us, 0u);
}

// The log manager's pump: its poll, archive and forward steps are
// attributed under their own names; time none of them covers is "other".
TEST_F(TraceTest, BuildReportAttributesLogManagerSteps) {
  std::vector<trace::Span> spans;
  spans.push_back(make_span("log_manager.pipeline", 30, 0, 1000, 100));
  spans.push_back(make_span("log_manager.poll", 36, 30, 1000, 10));
  spans.push_back(make_span("log_manager.archive", 31, 30, 1010, 60));
  spans.push_back(make_span("log_manager.forward", 32, 30, 1070, 30));
  spans.push_back(make_span("log_manager.pipeline", 33, 0, 2000, 50));
  spans.push_back(make_span("log_manager.archive", 34, 33, 2000, 20));
  spans.push_back(make_span("log_manager.forward", 35, 33, 2020, 20));

  trace::Report report = trace::build_report(spans, 0);
  ASSERT_EQ(report.stages.size(), 1u);
  const trace::StageReport& stage = report.stages[0];
  EXPECT_EQ(stage.stage, "log_manager");
  EXPECT_EQ(stage.batches, 2u);
  EXPECT_EQ(stage.total_us, 150u);
  EXPECT_EQ(stage.attributed_us, 140u);  // poll 10 + archive 80 + forward 50
  uint64_t poll = 0, archive = 0, forward = 0, other = 0;
  for (const auto& comp : stage.components) {
    if (comp.name == "poll") poll = comp.total_us;
    if (comp.name == "archive") archive = comp.total_us;
    if (comp.name == "forward") forward = comp.total_us;
    if (comp.name == "other") other = comp.total_us;
  }
  EXPECT_EQ(poll, 10u);
  EXPECT_EQ(archive, 80u);
  EXPECT_EQ(forward, 50u);
  EXPECT_EQ(other, 10u);  // the second pump's last 10 us
  EXPECT_EQ(stage.components.front().name, "archive");  // ranked first
}

TEST_F(TraceTest, FormatReportMentionsDropsAndStages) {
  std::vector<trace::Span> spans;
  spans.push_back(make_span("parser.pipeline", 1, 0, 0, 100));
  trace::Report report = trace::build_report(spans, 7);
  std::string text = trace::format_report(report);
  EXPECT_NE(text.find("stage parser"), std::string::npos);
  EXPECT_NE(text.find("DROPPED"), std::string::npos);
}

TEST_F(TraceTest, ChromeTraceJsonRoundTrips) {
  std::vector<trace::Span> spans;
  spans.push_back(make_span("parser.pipeline", 10, 0, 100, 200, 42));
  spans.back().batch = 5;
  spans.back().tid = 3;
  spans.push_back(make_span("parser.batch", 11, 10, 110, 180, 42));

  std::string dumped = trace::chrome_trace_json(spans).dump();
  auto parsed = Json::parse(dumped);
  ASSERT_TRUE(parsed.ok());
  const Json* events = parsed.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 2u);

  const Json& first = events->as_array()[0];
  EXPECT_EQ(first.find("name")->as_string(), "parser.pipeline");
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_EQ(first.find("cat")->as_string(), "loglens");
  EXPECT_EQ(first.find("ts")->as_int(), 100);
  EXPECT_EQ(first.find("dur")->as_int(), 200);
  EXPECT_EQ(first.find("tid")->as_int(), 3);
  const Json* args = first.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("trace")->as_int(), 42);
  EXPECT_EQ(args->find("span")->as_int(), 10);
  EXPECT_EQ(args->find("parent")->as_int(), 0);
  EXPECT_EQ(args->find("batch")->as_int(), 5);
  EXPECT_EQ(parsed.value().find("displayTimeUnit")->as_string(), "ms");
}

}  // namespace
}  // namespace loglens
