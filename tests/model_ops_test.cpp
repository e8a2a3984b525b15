#include "service/model_ops.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "service/wire.h"

namespace loglens {
namespace {

// A tiny engine whose single task reports the model version it sees.
struct Probe : PartitionTask {
  std::shared_ptr<ModelBroadcast> bv;
  explicit Probe(std::shared_ptr<ModelBroadcast> b) : bv(std::move(b)) {}
  void process(const Message& m, TaskContext& ctx) override {
    Message out = m;
    out.value = std::to_string(bv->value(0)->patterns.size());
    ctx.emit(std::move(out));
  }
};

TEST(ModelBuilder, BuildsWorkingModelFromD1) {
  Dataset d1 = make_d1(0.05);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  ModelBuilder builder(opts);
  BuildResult result = builder.build(d1.training);
  EXPECT_EQ(result.training_logs, d1.training.size());
  EXPECT_EQ(result.unparsed_training_logs, 0u);
  // 7 action templates => 7 patterns; 2 event types => 2 automata.
  EXPECT_EQ(result.model.patterns.size(), 7u);
  EXPECT_EQ(result.model.sequence.automata.size(), 2u);
  EXPECT_EQ(result.model.sequence.id_fields.size(), 7u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.discover_s, 0.0);
  EXPECT_GE(result.total_seconds, result.tokenize_s + result.discover_s +
                                       result.parse_s + result.learn_s);
}

TEST(ModelBuilder, EmptyCorpus) {
  ModelBuilder builder;
  BuildResult result = builder.build({});
  EXPECT_TRUE(result.model.patterns.empty());
  EXPECT_TRUE(result.model.sequence.automata.empty());
}

TEST(ModelBuilder, InvalidPreprocessorOptionsFallBackVisibly) {
  // A split rule that does not compile: the builder falls back to the
  // default tokenizer, counts the fallback, and records the defaults in the
  // model, so the model is parsed with the tokenizer it was built with.
  MetricsRegistry registry;
  Counter& fallbacks =
      registry.counter("loglens_preprocessor_invalid_options_total");
  Dataset d1 = make_d1(0.05);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  opts.preprocessor.split_rules.push_back({"([0-9]+", "$1"});
  BuildResult result = ModelBuilder(opts, &registry).build(d1.training);
  EXPECT_EQ(result.model.patterns.size(), 7u);
  EXPECT_EQ(result.model.tokenizer, PreprocessorOptions{});
  EXPECT_EQ(fallbacks.value(), 1u);

  // A tokenizer that compiles is recorded as given, and counts nothing.
  opts.preprocessor.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  result = ModelBuilder(opts, &registry).build(d1.training);
  EXPECT_EQ(result.model.tokenizer, opts.preprocessor);
  EXPECT_EQ(fallbacks.value(), 1u);
}

// The parser stage keeps its preprocessor across a redeploy of an equal
// tokenizer, and with it the timestamp recognizer's format cache: after
// 25/04/2016 fixed the day-first reading, 03/04/2016 still reads 3 April.
// A changed tokenizer takes effect, with a fresh cache that reads 4 March.
TEST(ParserTaskRedeploy, KeepsThePreprocessorOnlyForAnEqualTokenizer) {
  std::vector<std::string> lines;
  for (int e = 0; e < 8; ++e) {
    lines.push_back("25/04/2016 10:00:0" + std::to_string(e) +
                    " begin request a" + std::to_string(e));
    lines.push_back("03/04/2016 23:59:5" + std::to_string(e) +
                    " begin request b" + std::to_string(e));
  }
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  const CompositeModel model = ModelBuilder(opts).build(lines).model;
  ASSERT_EQ(model.patterns.size(), 1u);

  Preprocessor serial = std::move(Preprocessor::create({}).value());
  serial.process(lines[0]);
  const int64_t day_first = serial.process(lines[1]).timestamp_ms;
  Preprocessor fresh = std::move(Preprocessor::create({}).value());
  const int64_t month_first = fresh.process(lines[3]).timestamp_ms;
  ASSERT_NE(serial.process(lines[3]).timestamp_ms, month_first);

  auto bv = std::make_shared<ModelBroadcast>(1, model, 1);
  MetricsRegistry registry;
  ParserTask task(bv, 0, {}, &registry);
  auto parse = [&](const std::string& line) {
    Message m;
    m.tag = MessageTag::kData;
    m.source = "s";
    m.value = line;
    TaskContext ctx(0, 0);
    task.process(m, ctx);
    EXPECT_EQ(ctx.outputs().size(), 1u) << line;
    const ParsedLog* parsed = parsed_payload_view(ctx.outputs().at(0));
    EXPECT_NE(parsed, nullptr) << line;
    return parsed == nullptr ? int64_t{-1} : parsed->timestamp_ms;
  };
  parse(lines[0]);
  bv->update(model);  // an equal tokenizer
  EXPECT_EQ(parse(lines[1]), day_first);

  CompositeModel retokenized = model;
  retokenized.tokenizer.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  bv->update(retokenized);
  EXPECT_EQ(parse(lines[3]), month_first);
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() {
    bv_ = std::make_shared<ModelBroadcast>(1, CompositeModel{}, 1);
    EngineOptions opts;
    opts.partitions = 1;
    opts.workers = 1;
    engine_ = std::make_unique<StreamEngine>(
        opts, [this](size_t) -> std::unique_ptr<PartitionTask> {
          return std::make_unique<Probe>(bv_);
        });
    controller_ = std::make_unique<ModelController>(
        store_, std::vector<ModelController::Target>{{engine_.get(), bv_}});
    manager_ = std::make_unique<ModelManager>(store_, *controller_);
  }

  CompositeModel model_with(int patterns) {
    CompositeModel m;
    for (int i = 1; i <= patterns; ++i) {
      auto p = GrokPattern::parse("p" + std::to_string(i) + " %{NUMBER:n}");
      p->assign_field_ids(i);
      m.patterns.push_back(std::move(p.value()));
    }
    return m;
  }

  std::string probe() {
    Message m;
    m.key = "k";
    m.tag = MessageTag::kData;
    auto r = engine_->run_batch({m});
    return r.outputs.at(0).value;
  }

  ModelStore store_;
  std::shared_ptr<ModelBroadcast> bv_;
  std::unique_ptr<StreamEngine> engine_;
  std::unique_ptr<ModelController> controller_;
  std::unique_ptr<ModelManager> manager_;
};

TEST_F(ControllerTest, DeployLandsBeforeNextBatch) {
  EXPECT_EQ(probe(), "0");
  auto v = manager_->deploy("m", model_with(3));
  EXPECT_EQ(v.value(), 1);
  EXPECT_EQ(probe(), "3");
  EXPECT_EQ(manager_->deploy("m", model_with(5)).value(), 2);
  EXPECT_EQ(probe(), "5");
}

TEST_F(ControllerTest, ApplyUnknownModelFails) {
  EXPECT_FALSE(controller_->apply({ModelInstruction::Op::kUpdate, "ghost"})
                   .ok());
  EXPECT_EQ(controller_->instructions_applied(), 0u);
}

TEST_F(ControllerTest, EditMutatesAndRedeploys) {
  manager_->deploy("m", model_with(4));
  ASSERT_TRUE(manager_
                  ->edit("m",
                         [](CompositeModel& m) { m.patterns.pop_back(); })
                  .ok());
  EXPECT_EQ(probe(), "3");
  // The store has both versions.
  EXPECT_EQ(store_.latest("m")->version, 2);
  EXPECT_FALSE(manager_->edit("ghost", [](CompositeModel&) {}).ok());
}

TEST_F(ControllerTest, DeleteDeploysEmptyModel) {
  manager_->deploy("m", model_with(2));
  EXPECT_EQ(probe(), "2");
  manager_->remove("m");
  EXPECT_EQ(probe(), "0");
  EXPECT_FALSE(manager_->get("m").ok());
}

// A model that would not load back is refused before it is stored, so a
// version is never stored without being broadcast.
TEST_F(ControllerTest, DeployRefusesAModelThatCannotLoad) {
  ASSERT_TRUE(manager_->deploy("m", model_with(2)).ok());
  CompositeModel bad = model_with(3);
  bad.tokenizer.split_rules.push_back({"([0-9]+", "$1"});
  EXPECT_FALSE(manager_->deploy("m", bad).ok());
  EXPECT_FALSE(manager_
                   ->edit("m",
                          [](CompositeModel& m) {
                            m.tokenizer.split_rules.push_back({"(", "$1"});
                          })
                   .ok());
  EXPECT_EQ(store_.latest("m")->version, 1);
  EXPECT_EQ(probe(), "2");
}

TEST_F(ControllerTest, RebuildFromArchivedLogs) {
  LogStore logs;
  Dataset d1 = make_d1(0.02);
  for (const auto& line : d1.training) logs.add("D1", line, -1);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  auto result = manager_->rebuild("m", logs, "D1", ModelBuilder(opts));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->model.patterns.size(), 7u);
  EXPECT_EQ(probe(), "7");
  EXPECT_FALSE(
      manager_->rebuild("m", logs, "missing", ModelBuilder(opts)).ok());
}

// The deployed patterns were discovered under the deployed tokenizer, so an
// incremental rebuild with another one is refused and deploys nothing.
TEST_F(ControllerTest, IncrementalRebuildRefusesAnotherTokenizer) {
  LogStore logs;
  Dataset d1 = make_d1(0.02);
  for (const auto& line : d1.training) logs.add("D1", line, -1);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  ASSERT_TRUE(manager_->rebuild("m", logs, "D1", ModelBuilder(opts)).ok());
  auto same = manager_->rebuild_incremental("m", logs, "D1", ModelBuilder(opts));
  ASSERT_TRUE(same.ok()) << same.status().message();
  EXPECT_EQ(same->model.patterns.size(), 7u);
  EXPECT_EQ(store_.latest("m")->version, 2);

  opts.preprocessor.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  auto other =
      manager_->rebuild_incremental("m", logs, "D1", ModelBuilder(opts));
  EXPECT_FALSE(other.ok());
  EXPECT_EQ(store_.latest("m")->version, 2);
  EXPECT_EQ(manager_->get("m")->tokenizer, PreprocessorOptions{});
}

}  // namespace
}  // namespace loglens
