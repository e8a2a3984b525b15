// The human-validation feedback loop: for every anomaly type, accepting the
// anomaly as normal edits the model so the same behaviour no longer alarms —
// and the edit lands in the live pipeline.
#include <gtest/gtest.h>

#include "automata/detector.h"
#include "common/time.h"
#include "service/feedback.h"
#include "service/service.h"

namespace loglens {
namespace {

// Training corpus: a two-step workflow plus a KPI-bearing line.
std::vector<std::string> training() {
  std::vector<std::string> out;
  int64_t t0 = 1456218000000;
  for (int i = 0; i < 60; ++i) {
    std::string id = "wf-x" + std::to_string(100000 + i * 7);
    out.push_back(format_canonical(t0) + " OpenFlow flow " + id +
                  " from 10.0.0." + std::to_string(i % 9 + 1));
    out.push_back(format_canonical(t0 + 500) + " StepFlow flow " + id +
                  " work " + std::to_string(i * 13 % 977));
    out.push_back(format_canonical(t0 + 1000) + " CloseFlow flow " + id +
                  " latency " + std::to_string(100 + i % 50));
    t0 += 10'000;
  }
  return out;
}

class FeedbackTest : public ::testing::Test {
 protected:
  FeedbackTest() {
    ServiceOptions opts;
    opts.build.discovery.max_dist = 0.34;
    opts.build.learn_field_ranges = true;
    opts.build.learn_keywords = true;
    opts.build.field_ranges = {.margin = 0.0, .min_samples = 10};
    service_ = std::make_unique<LogLensService>(opts);
    BuildResult build = service_->train(training());
    EXPECT_EQ(build.unparsed_training_logs, 0u);
    EXPECT_EQ(build.model.sequence.automata.size(), 1u);
    handler_ = std::make_unique<FeedbackHandler>(service_->models(),
                                                 service_->model_name());
    agent_ = std::make_unique<Agent>(service_->make_agent("fb"));
  }

  // Streams one line and returns the anomalies it produced (new ones only).
  std::vector<Anomaly> stream(std::initializer_list<std::string> lines,
                              bool expire = false) {
    size_t before = service_->anomalies().count();
    for (const auto& l : lines) agent_->send_line(l);
    service_->drain();
    if (expire) {
      service_->heartbeat_advance(24L * 3600 * 1000);
      service_->drain();
    }
    auto all = service_->anomalies().all();
    return {all.begin() + static_cast<ptrdiff_t>(before), all.end()};
  }

  std::unique_ptr<LogLensService> service_;
  std::unique_ptr<FeedbackHandler> handler_;
  std::unique_ptr<Agent> agent_;
};

TEST_F(FeedbackTest, UnparsedLogLearnsNewPattern) {
  auto anomalies =
      stream({"2016/02/24 09:00:00 NewSubsystem booted region 7"});
  ASSERT_EQ(anomalies.size(), 1u);
  ASSERT_EQ(anomalies[0].type, AnomalyType::kUnparsedLog);
  auto result = handler_->accept_as_normal(anomalies[0]);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_NE(result->find("added pattern"), std::string::npos);
  // The same shape (different values) now parses.
  auto after = stream({"2016/02/24 10:11:12 NewSubsystem booted region 42"});
  EXPECT_TRUE(after.empty());
}

TEST_F(FeedbackTest, DurationViolationWidensWindow) {
  // A workflow 10x slower than anything in training.
  auto slow = stream({
      "2016/03/01 09:00:00 OpenFlow flow wf-slow1 from 10.0.0.1",
      "2016/03/01 09:00:05 StepFlow flow wf-slow1 work 17",
      "2016/03/01 09:00:10 CloseFlow flow wf-slow1 latency 120",
  });
  ASSERT_EQ(slow.size(), 1u);
  ASSERT_EQ(slow[0].type, AnomalyType::kDurationViolation);
  ASSERT_TRUE(handler_->accept_as_normal(slow[0]).ok());
  auto again = stream({
      "2016/03/01 10:00:00 OpenFlow flow wf-slow2 from 10.0.0.2",
      "2016/03/01 10:00:05 StepFlow flow wf-slow2 work 18",
      "2016/03/01 10:00:10 CloseFlow flow wf-slow2 latency 121",
  });
  EXPECT_TRUE(again.empty());
}

TEST_F(FeedbackTest, OccurrenceViolationWidensBounds) {
  auto noisy = stream({
      "2016/03/02 09:00:00.000 OpenFlow flow wf-n1 from 10.0.0.1",
      "2016/03/02 09:00:00.100 StepFlow flow wf-n1 work 1",
      "2016/03/02 09:00:00.200 StepFlow flow wf-n1 work 2",
      "2016/03/02 09:00:00.300 StepFlow flow wf-n1 work 3",
      "2016/03/02 09:00:00.400 StepFlow flow wf-n1 work 4",
      "2016/03/02 09:00:01.000 CloseFlow flow wf-n1 latency 120",
  });
  ASSERT_FALSE(noisy.empty());
  const Anomaly* occurrence = nullptr;
  for (const auto& a : noisy) {
    if (a.type == AnomalyType::kOccurrenceViolation) occurrence = &a;
  }
  ASSERT_NE(occurrence, nullptr);
  ASSERT_TRUE(handler_->accept_as_normal(*occurrence).ok());
  auto again = stream({
      "2016/03/02 10:00:00.000 OpenFlow flow wf-n2 from 10.0.0.1",
      "2016/03/02 10:00:00.100 StepFlow flow wf-n2 work 1",
      "2016/03/02 10:00:00.200 StepFlow flow wf-n2 work 2",
      "2016/03/02 10:00:00.300 StepFlow flow wf-n2 work 3",
      "2016/03/02 10:00:00.400 StepFlow flow wf-n2 work 4",
      "2016/03/02 10:00:01.000 CloseFlow flow wf-n2 latency 120",
  });
  EXPECT_TRUE(again.empty());
}

TEST_F(FeedbackTest, MissingEndAcceptedAsNewEndState) {
  // Events that legitimately end at StepFlow (say, fire-and-forget mode).
  auto truncated = stream({"2016/03/03 09:00:00 OpenFlow flow wf-t1 from "
                           "10.0.0.3",
                           "2016/03/03 09:00:00.500 StepFlow flow wf-t1 "
                           "work 9"},
                          /*expire=*/true);
  const Anomaly* missing_end = nullptr;
  for (const auto& a : truncated) {
    if (a.type == AnomalyType::kMissingEndState) missing_end = &a;
  }
  ASSERT_NE(missing_end, nullptr);
  ASSERT_TRUE(handler_->accept_as_normal(*missing_end).ok());
  // The same truncated shape now closes cleanly at StepFlow...
  auto again = stream({"2016/03/03 10:00:00 OpenFlow flow wf-t2 from "
                       "10.0.0.4",
                       "2016/03/03 10:00:00.500 StepFlow flow wf-t2 work 9"},
                      /*expire=*/true);
  for (const auto& a : again) {
    EXPECT_NE(a.type, AnomalyType::kMissingEndState) << a.reason;
  }
}

TEST_F(FeedbackTest, KeywordTokenAllowlisted) {
  auto alert =
      stream({"2016/03/04 09:00:00 OpenFlow flow wf-k1 from 10.0.0.1 "
              "failfast"});
  const Anomaly* keyword = nullptr;
  for (const auto& a : alert) {
    if (a.type == AnomalyType::kKeywordAlert) keyword = &a;
  }
  ASSERT_NE(keyword, nullptr);
  ASSERT_TRUE(handler_->accept_as_normal(*keyword).ok());
  auto again = stream(
      {"2016/03/04 10:00:00 OpenFlow flow wf-k2 from 10.0.0.1 failfast"});
  for (const auto& a : again) {
    EXPECT_NE(a.type, AnomalyType::kKeywordAlert);
  }
}

TEST_F(FeedbackTest, OutOfRangeValueWidensRange) {
  auto spike = stream({
      "2016/03/05 09:00:00.000 OpenFlow flow wf-r1 from 10.0.0.1",
      "2016/03/05 09:00:00.500 StepFlow flow wf-r1 work 5",
      "2016/03/05 09:00:01.000 CloseFlow flow wf-r1 latency 9000",
  });
  const Anomaly* range = nullptr;
  for (const auto& a : spike) {
    if (a.type == AnomalyType::kValueOutOfRange) range = &a;
  }
  ASSERT_NE(range, nullptr);
  ASSERT_TRUE(handler_->accept_as_normal(*range).ok());
  auto again = stream({
      "2016/03/05 10:00:00.000 OpenFlow flow wf-r2 from 10.0.0.1",
      "2016/03/05 10:00:00.500 StepFlow flow wf-r2 work 5",
      "2016/03/05 10:00:01.000 CloseFlow flow wf-r2 latency 8999",
  });
  for (const auto& a : again) {
    EXPECT_NE(a.type, AnomalyType::kValueOutOfRange) << a.reason;
  }
}

TEST_F(FeedbackTest, MalformedFeedbackRejected) {
  Anomaly bogus;
  bogus.type = AnomalyType::kDurationViolation;
  bogus.automaton_id = 99;  // no such automaton
  EXPECT_FALSE(handler_->accept_as_normal(bogus).ok());
  Anomaly no_details;
  no_details.type = AnomalyType::kOccurrenceViolation;
  no_details.automaton_id = 1;
  EXPECT_FALSE(handler_->accept_as_normal(no_details).ok());
  // Failed feedback must not have created junk model versions.
  int version = service_->model_store().latest(service_->model_name())->version;
  EXPECT_EQ(version, 1);
}

TEST_F(FeedbackTest, OpenStateEvictionHasNoModelEdit) {
  // An eviction reports the detector's memory bound, not a model verdict:
  // accepting it must fail with a clear error and deploy nothing.
  Anomaly evicted = make_eviction_anomaly(
      "wf-x100000", "fb", {"OpenFlow flow wf-x100000"}, /*automaton_id=*/1,
      /*event_last_ts=*/1456218000000, /*close_time_ms=*/1456218005000,
      /*open_events=*/2, /*max_open_events=*/1, /*deadline_ms=*/-1);
  ASSERT_EQ(evicted.type, AnomalyType::kOpenStateEvicted);
  auto result = handler_->accept_as_normal(evicted);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("capacity limit"),
            std::string::npos)
      << result.status().message();
  int version = service_->model_store().latest(service_->model_name())->version;
  EXPECT_EQ(version, 1);
}

TEST_F(FeedbackTest, PatternFromLineShape) {
  GrokPattern p = pattern_from_line(
      CompositeModel{},
      "2016/02/23 09:00:31 worker started job j-17 on 10.0.0.8 in 250 ms",
      7);
  EXPECT_EQ(p.id(), 7);
  EXPECT_EQ(p.to_string(),
            "%{DATETIME:P7F1} worker started job %{NOTSPACE:P7F2} on "
            "%{IP:P7F3} in %{NUMBER:P7F4} ms");
}

// Accepting a keyword alert on a model without a keyword detector (an alert
// from an earlier version) must not create one: a one-token allowlist would
// switch keyword detection on, and every other keyword token would alert.
TEST(Feedback, KeywordAlertOnAModelWithoutKeywordsIsRefused) {
  ServiceOptions opts;
  opts.build.discovery.max_dist = 0.34;
  LogLensService service(opts);
  service.train(training());
  Anomaly alert;
  alert.type = AnomalyType::kKeywordAlert;
  alert.details = Json(JsonObject{{"token", Json("failfast")}});
  FeedbackHandler handler(service.models(), service.model_name());
  auto result = handler.accept_as_normal(alert);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("no keyword detector"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(service.model_store().latest(service.model_name())->version, 1);

  Agent agent = service.make_agent("fb");
  agent.send_line(
      "2016/03/04 09:00:00 OpenFlow flow wf-k1 from 10.0.0.1 panic");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kKeywordAlert), 0u);
}

// A pattern learned from an unparsed line is tokenized with the model's own
// tokenizer: under the split rule "123KB" -> "123 KB" it parses the line
// that taught it, and its siblings.
TEST(Feedback, UnparsedLogOnASplitRuleModelLearnsAParsingPattern) {
  ServiceOptions opts;
  opts.build.discovery.max_dist = 0.34;
  opts.build.preprocessor.split_rules.push_back({"([0-9]+)(KB)", "$1 $2"});
  LogLensService service(opts);
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) {
    lines.push_back("2016/02/23 09:00:" + std::to_string(10 + i % 50) +
                    " cache read " + std::to_string(100 + i) + "KB from node" +
                    std::to_string(i % 5));
  }
  ASSERT_EQ(service.train(lines).unparsed_training_logs, 0u);
  Agent agent = service.make_agent("fb");
  agent.send_line("2016/02/24 09:00:00 spill wrote 55KB to 10.0.0.7");
  service.drain();
  auto unparsed = service.anomalies().by_type(AnomalyType::kUnparsedLog);
  ASSERT_EQ(unparsed.size(), 1u);

  FeedbackHandler handler(service.models(), service.model_name());
  auto result = handler.accept_as_normal(unparsed[0]);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_NE(result->find("spill wrote %{NUMBER:P2F2} KB to %{IP:P2F3}"),
            std::string::npos)
      << *result;
  agent.send_line("2016/02/24 09:00:00 spill wrote 55KB to 10.0.0.7");
  agent.send_line("2016/02/24 10:11:12 spill wrote 4096KB to 10.0.0.9");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 1u);
}

}  // namespace
}  // namespace loglens
