#include "service/model_ops.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "service/service.h"
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
  // One batch per line, as the engine drives the task.
  auto parse = [&](const std::string& line) {
    Message m;
    m.tag = MessageTag::kData;
    m.source = "s";
    m.value = line;
    TaskContext ctx(0, 0);
    task.on_batch_start(ctx);
    task.process(m, ctx);
    EXPECT_EQ(ctx.outputs().size(), 1u) << line;
    const ParsedLog* parsed = parsed_payload_view(ctx.outputs().at(0));
    EXPECT_NE(parsed, nullptr) << line;
    return parsed == nullptr ? int64_t{-1} : parsed->timestamp_ms;
  };
  parse(lines[0]);
  bv->update(std::make_shared<const CompositeModel>(model));  // equal tokenizer
  EXPECT_EQ(parse(lines[1]), day_first);

  CompositeModel retokenized = model;
  retokenized.tokenizer.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  bv->update(std::make_shared<const CompositeModel>(std::move(retokenized)));
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
  // The same archive rebuilds an equal model, so nothing new is stored.
  EXPECT_EQ(store_.latest("m")->version, 1);

  opts.preprocessor.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  auto other =
      manager_->rebuild_incremental("m", logs, "D1", ModelBuilder(opts));
  EXPECT_FALSE(other.ok());
  EXPECT_EQ(store_.latest("m")->version, 1);
  EXPECT_EQ(manager_->get("m").value()->tokenizer, PreprocessorOptions{});
}

TEST(ModelStore, VersioningAndDelete) {
  ModelStore store;
  auto v1 = std::make_shared<const CompositeModel>();
  auto v2 = std::make_shared<const CompositeModel>();
  EXPECT_EQ(store.put("m", v1), 1);
  EXPECT_EQ(store.put("m", v2), 2);
  auto latest = store.latest("m");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2);
  EXPECT_EQ(latest->model, v2);
  auto first = store.version("m", 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->model, v1);
  store.remove("m");
  EXPECT_FALSE(store.latest("m").has_value());
  EXPECT_TRUE(store.names().empty());
  // Re-adding revives with the next version.
  EXPECT_EQ(store.put("m", v1), 3);
  EXPECT_TRUE(store.latest("m").has_value());
}

// A name keeps its last kKeptVersions loaded models, so redeploying does not
// grow the store with the service's run time.
TEST(ModelStore, KeepsOnlyTheLastVersions) {
  ModelStore store;
  auto model = std::make_shared<const CompositeModel>();
  for (int v = 1; v <= 5; ++v) EXPECT_EQ(store.put("m", model), v);
  EXPECT_EQ(ModelStore::kKeptVersions, 2u);
  EXPECT_EQ(store.latest("m")->version, 5);
  EXPECT_TRUE(store.version("m", 5).has_value());
  EXPECT_TRUE(store.version("m", 4).has_value());
  EXPECT_FALSE(store.version("m", 3).has_value());
  EXPECT_FALSE(store.version("m", 6).has_value());
  EXPECT_FALSE(store.version("m", 0).has_value());
  EXPECT_EQ(model.use_count(), 3);  // the two kept versions + this one
}

TEST(ModelStore, IndependentNames) {
  ModelStore store;
  store.put("a", std::make_shared<const CompositeModel>());
  store.put("b", std::make_shared<const CompositeModel>());
  EXPECT_EQ(store.names().size(), 2u);
  EXPECT_FALSE(store.latest("c").has_value());
}

CompositeModel d1_model() {
  BuildOptions opts;
  opts.discovery = recommended_discovery("D1");
  opts.learn_keywords = true;
  opts.learn_field_ranges = true;
  return ModelBuilder(opts).build(make_d1(0.02).training).model;
}

// deploy loads the model once. The store's latest version, both stages'
// broadcasts and ModelManager::get then hold that one object: the
// controller neither parses nor copies it.
TEST(ModelSharing, StoreAndBothStagesHoldTheDeployedObject) {
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 1;
  auto parser_bv = std::make_shared<ModelBroadcast>(1, CompositeModel{}, 2);
  auto detector_bv = std::make_shared<ModelBroadcast>(2, CompositeModel{}, 2);
  StreamEngine parser(opts, [&](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<ParserTask>(parser_bv, p);
  });
  StreamEngine detector(opts, [&](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<DetectorTask>(detector_bv, p);
  });
  ModelStore store;
  ModelController controller(
      store, {{&parser, parser_bv}, {&detector, detector_bv}});
  ModelManager manager(store, controller);

  const CompositeModel model = d1_model();
  ASSERT_TRUE(model.keyword_model.has_value());
  ASSERT_TRUE(manager.deploy("m", model).ok());
  parser.run_batch({});
  detector.run_batch({});
  const CompositeModel* stored = store.latest("m")->model.get();
  EXPECT_EQ(*stored, model);
  EXPECT_EQ(manager.get("m").value().get(), stored);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(parser_bv->value(p).get(), stored);
    EXPECT_EQ(detector_bv->value(p).get(), stored);
  }

  // A delete broadcasts one empty model to both stages.
  manager.remove("m");
  parser.run_batch({});
  detector.run_batch({});
  EXPECT_TRUE(parser_bv->value(0)->patterns.empty());
  EXPECT_EQ(parser_bv->value(0).get(), detector_bv->value(1).get());
}

// Both stages read the model once per batch, at its head, whether or not a
// partition gets input: partitions x batches reads in all, not one a log.
TEST(ModelSharing, TasksReadTheModelOncePerPartitionPerBatch) {
  const CompositeModel model = d1_model();
  EngineOptions opts;
  opts.partitions = 2;
  opts.workers = 1;
  auto parser_bv = std::make_shared<ModelBroadcast>(1, model, 2);
  auto detector_bv = std::make_shared<ModelBroadcast>(2, model, 2);
  StreamEngine parser(opts, [&](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<ParserTask>(parser_bv, p);
  });
  StreamEngine detector(opts, [&](size_t p) -> std::unique_ptr<PartitionTask> {
    return std::make_unique<DetectorTask>(detector_bv, p);
  });
  const Dataset d1 = make_d1(0.02);
  constexpr size_t kBatches = 5;
  constexpr size_t kLogs = 7;
  size_t parsed = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Message> batch;
    for (size_t i = 0; i < kLogs; ++i) {
      Message m;
      m.tag = MessageTag::kData;
      m.source = "D1";
      m.value = d1.testing.at(b * kLogs + i);
      batch.push_back(std::move(m));
    }
    BatchResult r = parser.run_batch(std::move(batch));
    parsed += r.outputs.size();
    detector.run_batch(std::move(r.outputs));
  }
  EXPECT_GE(parsed, kBatches * kLogs);
  EXPECT_EQ(parser_bv->pulls() + parser_bv->cache_hits(), 2 * kBatches);
  EXPECT_EQ(detector_bv->pulls() + detector_bv->cache_hits(), 2 * kBatches);
  EXPECT_EQ(parser_bv->pulls(), 2u);  // no rebroadcast: one pull a partition
}

// Adopting a new model version is timed once per partition per deploy, in
// each stage: the parser's LogParser rebuild, the detector's update_model.
// An equal redeploy is no new version.
TEST(ModelSharing, UpdatePauseIsRecordedPerPartitionPerDeploy) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.parser_partitions = 2;
  opts.detector_partitions = 3;
  opts.build.discovery = recommended_discovery("D1");
  LogLensService service(opts);
  const Dataset d1 = make_d1(0.02);
  const CompositeModel model = service.train(d1.training).model;
  Agent agent = service.make_agent("D1");
  auto stream = [&](size_t from) {
    agent.replay(std::vector<std::string>(d1.testing.begin() + from,
                                          d1.testing.begin() + from + 20));
    service.drain();
  };
  Histogram& parser_pause = registry.histogram(
      "loglens_model_update_pause_us", {{"stage", "parser"}});
  Histogram& detector_pause = registry.histogram(
      "loglens_model_update_pause_us", {{"stage", "detector"}});
  stream(0);
  EXPECT_EQ(parser_pause.count(), 2u);
  EXPECT_EQ(detector_pause.count(), 3u);

  // Redeploying the running model keeps its version and stored object, and
  // no partition adopts anything.
  const auto deployed = service.models().get(service.model_name()).value();
  auto same = service.models().deploy(service.model_name(), model);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value(), 1);
  EXPECT_EQ(service.models().get(service.model_name()).value(), deployed);
  stream(20);
  EXPECT_EQ(parser_pause.count(), 2u);
  EXPECT_EQ(detector_pause.count(), 3u);

  CompositeModel edited = model;
  auto extra = GrokPattern::parse("never seen %{WORD:x}");
  ASSERT_TRUE(extra.ok());
  extra->assign_field_ids(1000);
  edited.patterns.push_back(std::move(extra.value()));
  ASSERT_TRUE(service.models().deploy(service.model_name(), edited).ok());
  stream(40);
  stream(60);  // no deploy in between: nothing to adopt
  EXPECT_EQ(parser_pause.count(), 2u * 2);
  EXPECT_EQ(detector_pause.count(), 3u * 2);
}

}  // namespace
}  // namespace loglens
