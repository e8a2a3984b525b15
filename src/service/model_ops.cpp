#include "service/model_ops.h"

#include <algorithm>

#include "common/clock.h"
#include "common/parallel.h"

namespace loglens {

namespace {

// Fewest training logs one re-parse thread takes on: each thread builds its
// own LogParser index first.
constexpr size_t kParseGrain = 4096;

// Seconds since the previous call (or construction).
class PhaseTimer {
 public:
  double lap() {
    const uint64_t now = trace_clock::now_us();
    const double seconds = static_cast<double>(now - last_us_) / 1e6;
    last_us_ = now;
    return seconds;
  }

 private:
  uint64_t last_us_ = trace_clock::now_us();
};

// The preprocessor for `tokenizer`. One that does not compile (a bad split
// rule) is reset to the defaults rather than dropping the build, but
// visibly: each fallback counts in loglens_preprocessor_invalid_options_total.
Preprocessor make_preprocessor(PreprocessorOptions& tokenizer,
                               MetricsRegistry* metrics) {
  auto pre = Preprocessor::create(tokenizer);
  if (pre.ok()) return std::move(pre.value());
  registry_or_global(metrics)
      .counter("loglens_preprocessor_invalid_options_total", {},
               "Invalid builder tokenizers replaced by the defaults")
      .inc();
  tokenizer = {};
  return std::move(Preprocessor::create(tokenizer).value());
}

}  // namespace

Status check_tokenizer(const PreprocessorOptions& tokenizer) {
  auto pre = Preprocessor::create(tokenizer);
  return pre.ok() ? Status::Ok() : pre.status();
}

ModelBuilder::ModelBuilder(BuildOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)), metrics_(metrics) {}

BuildResult ModelBuilder::build(
    const std::vector<std::string>& training_lines) const {
  return build(training_lines, {});
}

BuildResult ModelBuilder::build(
    const std::vector<std::string>& training_lines,
    std::vector<GrokPattern> known_patterns) const {
  BuildResult result;
  result.training_logs = training_lines.size();
  PhaseTimer timer;

  // Serial, in stream order: the timestamp recognizer's format cache makes
  // how a line's date reads depend on the lines before it.
  result.model.tokenizer = options_.preprocessor;
  Preprocessor preprocessor =
      make_preprocessor(result.model.tokenizer, metrics_);
  // One scratch log takes the growth; each record is a copy of it, which
  // sizes the text and the token vector exactly.
  std::vector<TokenizedLog> tokenized;
  tokenized.reserve(training_lines.size());
  TokenizedLog scratch;
  result.corpus_bytes = training_lines.size() * sizeof(TokenizedLog);
  for (const auto& line : training_lines) {
    preprocessor.process_into(line, scratch);
    const TokenizedLog& record = tokenized.emplace_back(scratch);
    result.corpus_bytes += record.text.capacity() +
                           record.tokens.capacity() * sizeof(Token);
  }
  scratch = {};
  result.tokenize_s = timer.lap();

  PatternDiscoverer discoverer(options_.discovery, preprocessor.classifier());
  result.model.patterns =
      known_patterns.empty()
          ? discoverer.discover(tokenized)
          : discoverer.discover_incremental(tokenized,
                                            std::move(known_patterns));
  result.discover_s = timer.lap();

  // Parse the training corpus with the discovered model to feed the
  // sequence learner (and as a sanity check: everything should parse).
  // LogParser::parse does not depend on earlier logs, so contiguous chunks
  // on their own parsers (sharing one compiled model) fill the same slots a
  // serial pass would. A parsed log takes its record's buffer as its raw
  // line; the record is freed right after, so the corpus shrinks as the
  // parsed logs grow.
  const size_t n = tokenized.size();
  std::vector<ParsedLog> parsed(n);
  std::vector<char> ok(n, 0);
  const size_t threads = parallel_threads();
  const size_t chunk = std::max(kParseGrain, (n + threads - 1) / threads);
  LogParser::CompiledModel compiled =
      LogParser::compile(result.model.patterns, preprocessor.classifier());
  parallel_for(n, chunk, [&](size_t begin, size_t end) {
    LogParser parser(compiled, preprocessor.classifier(),
                     LogParser::kDefaultIndexCapacity);
    for (size_t i = begin; i < end; ++i) {
      ok[i] = parser.parse_into(std::move(tokenized[i]), parsed[i]) ? 1 : 0;
      tokenized[i] = {};
    }
  });
  tokenized = {};
  compiled.reset();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++result.unparsed_training_logs;
      continue;
    }
    if (kept != i) parsed[kept] = std::move(parsed[i]);
    ++kept;
  }
  parsed.resize(kept);
  result.parse_s = timer.lap();

  result.model.sequence = learn_sequence_model(parsed, options_.learner);

  if (options_.learn_field_ranges) {
    FieldRangeModel ranges(options_.field_ranges);
    for (const auto& log : parsed) ranges.learn(log);
    result.model.field_ranges = std::move(ranges);
  }
  if (options_.learn_keywords) {
    KeywordDetector& keywords = result.model.keyword_model.emplace();
    for (const auto& line : training_lines) keywords.observe_normal(line);
  }
  result.learn_s = timer.lap();
  result.total_seconds =
      result.tokenize_s + result.discover_s + result.parse_s + result.learn_s;
  return result;
}

ModelController::ModelController(ModelStore& store, std::vector<Target> targets)
    : store_(store), targets_(std::move(targets)) {}

Status ModelController::apply(const ModelInstruction& instruction) {
  static const auto kEmpty = std::make_shared<const CompositeModel>();
  std::shared_ptr<const CompositeModel> model = kEmpty;
  if (instruction.op != ModelInstruction::Op::kDelete) {
    auto entry = store_.latest(instruction.model_name);
    if (!entry.has_value()) {
      return Status::Error("model not found: " + instruction.model_name);
    }
    model = std::move(entry->model);
  }
  for (auto& target : targets_) {
    target.engine->enqueue_control(
        [broadcast = target.broadcast, model] { broadcast->update(model); });
  }
  ++applied_;
  return Status::Ok();
}

ModelManager::ModelManager(ModelStore& store, ModelController& controller)
    : store_(store), controller_(controller) {}

StatusOr<int> ModelManager::deploy(const std::string& name,
                                   const CompositeModel& model) {
  return deploy_json(name, model.to_json());
}

StatusOr<int> ModelManager::deploy_json(const std::string& name,
                                        const Json& model_json) {
  auto loaded = CompositeModel::from_json(model_json);
  if (!loaded.ok()) return StatusOr<int>(loaded.status());
  // An unchanged model is already what every stage runs: rebroadcasting it
  // would only make each partition rebuild its parser and its detector.
  if (auto latest = store_.latest(name);
      latest.has_value() && *latest->model == loaded.value()) {
    return latest->version;
  }
  const int version = store_.put(
      name, std::make_shared<const CompositeModel>(std::move(loaded.value())));
  Status applied = controller_.apply(
      {version == 1 ? ModelInstruction::Op::kAdd
                    : ModelInstruction::Op::kUpdate,
       name});
  if (!applied.ok()) return StatusOr<int>(applied);
  return version;
}

Status ModelManager::edit(
    const std::string& name,
    const std::function<void(CompositeModel&)>& mutate) {
  auto current = get(name);
  if (!current.ok()) return current.status();
  CompositeModel model = *current.value();
  mutate(model);
  return deploy(name, model).status();
}

StatusOr<BuildResult> ModelManager::rebuild(const std::string& name,
                                            LogStore& logs,
                                            const std::string& source,
                                            const ModelBuilder& builder) {
  std::vector<std::string> lines = logs.fetch(source);
  if (lines.empty()) {
    return StatusOr<BuildResult>::Error("no archived logs for source: " +
                                        source);
  }
  BuildResult result = builder.build(lines);
  if (auto v = deploy(name, result.model); !v.ok()) {
    return StatusOr<BuildResult>(v.status());
  }
  return result;
}

StatusOr<BuildResult> ModelManager::rebuild_incremental(
    const std::string& name, LogStore& logs, const std::string& source,
    const ModelBuilder& builder) {
  std::vector<std::string> lines = logs.fetch(source);
  if (lines.empty()) {
    return StatusOr<BuildResult>::Error("no archived logs for source: " +
                                        source);
  }
  auto current = get(name);
  std::vector<GrokPattern> known;
  if (current.ok()) known = current.value()->patterns;
  BuildResult result = builder.build(lines, std::move(known));
  if (current.ok() && result.model.tokenizer != current.value()->tokenizer) {
    return StatusOr<BuildResult>::Error(
        "builder tokenizer differs from the deployed model's: rebuild '" +
        name + "' from scratch instead");
  }
  if (auto v = deploy(name, result.model); !v.ok()) {
    return StatusOr<BuildResult>(v.status());
  }
  return result;
}

StatusOr<std::shared_ptr<const CompositeModel>> ModelManager::get(
    const std::string& name) const {
  auto entry = store_.latest(name);
  if (!entry.has_value()) {
    return StatusOr<std::shared_ptr<const CompositeModel>>::Error(
        "model not found: " + name);
  }
  return std::move(entry->model);
}

void ModelManager::remove(const std::string& name) {
  store_.remove(name);
  controller_.apply({ModelInstruction::Op::kDelete, name});
}

}  // namespace loglens
