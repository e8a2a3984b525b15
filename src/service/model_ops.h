// Model Builder, Model Manager, and Model Controller (Figure 1).
//
// Builder: turns a corpus of "correct" training logs into the composite
// model — discovers GROK patterns (LogMine), parses the corpus with them,
// discovers event ID fields, and learns the automata.
//
// Manager: versioned model lifecycle on top of the model store — store,
// rebuild, and *edit* (the Section III-A4 / Table V human-in-the-loop hook:
// load, mutate, store as a new version, notify the controller).
//
// Controller: translates add/update/delete instructions into rebroadcasts
// applied to the running engines between micro-batches — the zero-downtime
// model update of Section V-A. A deployed model is loaded once, by deploy();
// the store, the broadcasts and every task then share that one immutable
// object.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "logmine/discoverer.h"
#include "service/model.h"
#include "service/tasks.h"
#include "storage/stores.h"
#include "streaming/engine.h"
#include "tokenize/preprocessor.h"

namespace loglens {

struct BuildOptions {
  DiscoveryOptions discovery;
  // The tokenizer to train with; the built model records the one it used.
  PreprocessorOptions preprocessor;
  LearnerOptions learner;
  // Extension detectors (opt-in): learn KPI ranges per (pattern, field) and
  // the severity-keyword allowlist from the training corpus.
  bool learn_field_ranges = false;
  bool learn_keywords = false;
  FieldRangeOptions field_ranges;
};

struct BuildResult {
  CompositeModel model;
  size_t training_logs = 0;
  size_t unparsed_training_logs = 0;  // sanity: should be 0
  // Wall time of each build phase, and of the whole build.
  double tokenize_s = 0;  // preprocessing the training lines
  double discover_s = 0;  // pattern discovery
  double parse_s = 0;     // re-parsing the corpus with the patterns
  double learn_s = 0;     // ID fields, automata, extension detectors
  double total_seconds = 0;
  // Bytes the tokenized training corpus held: each log's text and token
  // capacity plus its record header.
  size_t corpus_bytes = 0;
};

// Preprocessor::create's verdict on a tokenizer, for a front end that must
// refuse a bad one rather than let ModelBuilder fall back to the defaults.
Status check_tokenizer(const PreprocessorOptions& tokenizer);

// Tokenization runs serially in stream order: the timestamp recognizer's
// format cache lets earlier lines decide how an ambiguous date reads.
// Level-0 discovery and the re-parse run on parallel_for threads; both write
// index-addressed results combined in order, so the model does not depend
// on the thread count (DESIGN.md, model builder).
//
// Memory: each tokenized line is one exactly sized record (its text buffer
// and its tokens, no growth slack), and the re-parse hands each record's
// buffer to its parsed log and frees its tokens as soon as the line is
// parsed, so the tokenized and the parsed corpus are never both whole.
class ModelBuilder {
 public:
  // A tokenizer that does not compile (a bad split rule) is replaced by the
  // defaults rather than failing the build; the model records the defaults,
  // and each fallback counts in loglens_preprocessor_invalid_options_total
  // of `metrics` (nullptr -> the global registry).
  explicit ModelBuilder(BuildOptions options = {},
                        MetricsRegistry* metrics = nullptr);

  BuildResult build(const std::vector<std::string>& training_lines) const;

  // Incremental variant: seeds pattern discovery with an existing pattern
  // set (PatternDiscoverer::discover_incremental) — lines a known pattern
  // already parses skip clustering, and new patterns extend the set with ids
  // continuing after the known ones. The sequence model and extension
  // detectors are still relearned from the full corpus. With `known_patterns`
  // empty this is exactly build().
  BuildResult build(const std::vector<std::string>& training_lines,
                    std::vector<GrokPattern> known_patterns) const;

 private:
  BuildOptions options_;
  MetricsRegistry* metrics_;
};

struct ModelInstruction {
  enum class Op { kAdd, kUpdate, kDelete };
  Op op = Op::kUpdate;
  std::string model_name;
};

class ModelController {
 public:
  // Every (engine, broadcast) pair receives each applied model.
  struct Target {
    StreamEngine* engine;
    std::shared_ptr<ModelBroadcast> broadcast;
  };

  ModelController(ModelStore& store, std::vector<Target> targets);

  // Reads the named model from the store and schedules the rebroadcast of
  // that same object to every target; the engines pick it up before their
  // next micro-batch. kDelete broadcasts an empty model.
  Status apply(const ModelInstruction& instruction);

  uint64_t instructions_applied() const { return applied_; }

 private:
  ModelStore& store_;
  std::vector<Target> targets_;
  uint64_t applied_ = 0;
};

class ModelManager {
 public:
  ModelManager(ModelStore& store, ModelController& controller);

  // Loads a model from its JSON form (a checkpoint's blob, or deploy's
  // round trip), stores it as a new version and pushes an update
  // instruction; returns the version. The JSON is parsed once, and what is
  // stored and broadcast is that loaded model. JSON that does not load
  // (from_json rejects it, e.g. a split rule that does not compile) is an
  // error and nothing is stored. A model equal to the latest stored version
  // is neither stored nor rebroadcast: the call returns that version.
  StatusOr<int> deploy_json(const std::string& name, const Json& model_json);

  // deploy_json of the model's JSON: the model is checked by one round trip,
  // so what is stored is exactly what a checkpoint of it restores.
  StatusOr<int> deploy(const std::string& name, const CompositeModel& model);

  // Human/automated edit: load latest, mutate, store, push update.
  Status edit(const std::string& name,
              const std::function<void(CompositeModel&)>& mutate);

  // Periodic relearning hook (the "rebuild using the last seven days of
  // logs" flow): rebuild from archived logs of a source and deploy.
  StatusOr<BuildResult> rebuild(const std::string& name, LogStore& logs,
                                const std::string& source,
                                const ModelBuilder& builder);

  // Like rebuild, but seeds discovery with the latest deployed version's
  // patterns (when one exists): stable pattern ids survive the relearn, and
  // discovery cost scales with the *novel* portion of the archive, not its
  // size. Falls back to a full build for a model never deployed. The known
  // patterns were discovered under the deployed model's tokenizer, so a
  // builder whose tokenizer differs is an error and nothing is deployed.
  StatusOr<BuildResult> rebuild_incremental(const std::string& name,
                                            LogStore& logs,
                                            const std::string& source,
                                            const ModelBuilder& builder);

  // The latest stored version: the deployed object itself, not a copy.
  StatusOr<std::shared_ptr<const CompositeModel>> get(
      const std::string& name) const;
  void remove(const std::string& name);

 private:
  ModelStore& store_;
  ModelController& controller_;
};

}  // namespace loglens
