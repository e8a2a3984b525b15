// The model builder's output is pinned byte for byte: FNV-1a digests of the
// model JSON ModelBuilder::build gives on reduced-scale datasets, as recorded
// from a fully serial builder. Level 0 and the training re-parse run on as
// many threads as the machine has, so a digest that moves means the model
// depends on the thread count or the build changed the model.
//
// The last case pins why tokenization stays serial: the timestamp
// recognizer's format cache lets earlier lines decide how an ambiguous date
// reads, so only a stream-order read gives the durations below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datagen/datasets.h"
#include "service/model_ops.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

std::string hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

BuildResult build(const std::string& dataset,
                  const std::vector<std::string>& lines,
                  std::vector<GrokPattern> known = {}) {
  BuildOptions opts;
  opts.discovery = recommended_discovery(dataset);
  return ModelBuilder(opts).build(lines, std::move(known));
}

std::string digest(const BuildResult& r) {
  return hex(fnv1a(r.model.to_json().dump()));
}

struct Pinned {
  const char* dataset;
  double scale;
  const char* digest;
};

TEST(ModelBuildIdentity, DigestsMatchTheSerialBuilder) {
  const Pinned cases[] = {
      {"D1", 0.2, "5091cd4b1660ca52"},   {"D2", 0.2, "c119397459c45655"},
      {"SS7", 0.01, "944d9eea00fce675"}, {"SQL", 0.02, "e8b641fff630e58c"},
      {"D4", 0.05, "6eceae82ac8aeded"},
  };
  for (const Pinned& c : cases) {
    const Dataset ds = make_dataset(c.dataset, c.scale);
    const BuildResult r = build(c.dataset, ds.training);
    EXPECT_EQ(r.unparsed_training_logs, 0u) << c.dataset;
    EXPECT_EQ(digest(r), c.digest) << c.dataset << " at scale " << c.scale;
  }
}

TEST(ModelBuildIdentity, IncrementalDigestMatchesTheSerialBuilder) {
  // Seeded with D1's patterns, over D1's test split plus D2's training
  // split: D2's lines are the novel remainder that gets clustered.
  const Dataset d1 = make_d1(0.2);
  const Dataset d2 = make_d2(0.2);
  const BuildResult base = build("D1", d1.training);
  std::vector<std::string> lines = d1.testing;
  lines.insert(lines.end(), d2.training.begin(), d2.training.end());
  const BuildResult r = build("D1", lines, base.model.patterns);
  EXPECT_EQ(r.model.patterns.size(), 18u);
  EXPECT_EQ(digest(r), "1f46cbba7b942f74");
}

// The extension detectors are pinned too: a keyword allowlist learned from
// lines with keyword-bearing tokens, and KPI field ranges. The model JSON
// loads back to the same bytes.
TEST(ModelBuildIdentity, ExtensionDetectorDigestsMatchTheSerialBuilder) {
  std::vector<std::string> lines = make_d1(0.2).training;
  for (int i = 0; i < 20; ++i) {
    lines.push_back("2016/02/23 09:10:" + std::to_string(10 + i) +
                    " failover-manager rotated errorlog in " +
                    std::to_string(100 + i) + " ms");
  }
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  opts.learn_keywords = true;
  opts.learn_field_ranges = true;
  const BuildResult r = ModelBuilder(opts).build(lines);
  EXPECT_EQ(r.unparsed_training_logs, 0u);
  const std::string json = r.model.to_json().dump();
  EXPECT_NE(json.find("\"allowlist\":[\"errorlog\",\"failover-manager\"]"),
            std::string::npos)
      << json;
  EXPECT_EQ(digest(r), "512f45fb131802c7");
  auto back = CompositeModel::from_json(r.model.to_json());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->to_json().dump(), json);
}

TEST(ModelBuildIdentity, AmbiguousDatesReadInStreamOrder) {
  // A few 25/04/2016 events fix the day-first reading; then thousands of
  // events start on 03/04/2016, which a fresh preprocessor reads month-first
  // (4 March), and end on 04/04/2016. Any chunk of the corpus tokenized on
  // its own would start on a 03/04 line.
  std::vector<std::string> lines;
  for (int e = 0; e < 8; ++e) {
    lines.push_back("25/04/2016 10:00:0" + std::to_string(e) +
                    " begin request a" + std::to_string(e));
    lines.push_back("25/04/2016 10:00:1" + std::to_string(e) +
                    " finish request a" + std::to_string(e));
  }
  for (int e = 0; e < 4000; ++e) {
    lines.push_back("03/04/2016 23:59:5" + std::to_string(e % 10) +
                    " begin request b" + std::to_string(e));
    lines.push_back("04/04/2016 00:00:1" + std::to_string(e % 10) +
                    " finish request b" + std::to_string(e));
  }

  // The serial stream-order read: one preprocessor over every line.
  Preprocessor serial = std::move(Preprocessor::create({}).value());
  // Event id -> (first, last) timestamp.
  std::map<std::string, std::pair<int64_t, int64_t>> spans;
  for (const auto& line : lines) {
    const int64_t ts = serial.process(line).timestamp_ms;
    const std::string id = line.substr(line.rfind(' ') + 1);
    auto [it, fresh] = spans.try_emplace(id, ts, ts);
    if (!fresh) it->second.second = ts;
  }
  int64_t min_ms = INT64_MAX;
  int64_t max_ms = 0;
  for (const auto& [_, span] : spans) {
    min_ms = std::min(min_ms, span.second - span.first);
    max_ms = std::max(max_ms, span.second - span.first);
  }
  EXPECT_EQ(min_ms, 10000);
  EXPECT_EQ(max_ms, 20000);

  // The corpus is ambiguous: read on its own, the first 03/04 line is
  // 4 March.
  Preprocessor alone = std::move(Preprocessor::create({}).value());
  EXPECT_NE(alone.process(lines[16]).timestamp_ms,
            serial.process(lines[16]).timestamp_ms);

  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  const BuildResult r = ModelBuilder(opts).build(lines);
  ASSERT_EQ(r.model.sequence.automata.size(), 1u);
  EXPECT_EQ(r.model.sequence.automata[0].min_duration_ms, min_ms);
  EXPECT_EQ(r.model.sequence.automata[0].max_duration_ms, max_ms);
}

}  // namespace
}  // namespace loglens
