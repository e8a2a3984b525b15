#include "service/model_ops.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"

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
  // A split rule that does not compile: the builder and the parser stage
  // both fall back to the default preprocessor, and each fallback counts.
  MetricsRegistry registry;
  Counter& fallbacks =
      registry.counter("loglens_preprocessor_invalid_options_total");
  Dataset d1 = make_d1(0.05);
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  opts.preprocessor.split_rules.push_back({"([0-9]+", "$1"});
  BuildResult result = ModelBuilder(opts, &registry).build(d1.training);
  EXPECT_EQ(result.model.patterns.size(), 7u);
  EXPECT_EQ(fallbacks.value(), 1u);

  ParserTaskOptions task_opts;
  task_opts.preprocessor = opts.preprocessor;
  ParserTask task(std::make_shared<ModelBroadcast>(1, result.model, 1), 0,
                  task_opts, &registry);
  EXPECT_EQ(fallbacks.value(), 2u);

  opts.preprocessor = {};
  ModelBuilder(opts, &registry).build(d1.training);
  EXPECT_EQ(fallbacks.value(), 2u);
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
  int v = manager_->deploy("m", model_with(3));
  EXPECT_EQ(v, 1);
  EXPECT_EQ(probe(), "3");
  EXPECT_EQ(manager_->deploy("m", model_with(5)), 2);
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

}  // namespace
}  // namespace loglens
