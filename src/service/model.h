// The composite LogLens model: everything the streaming stages need, bundled
// as one object that is loaded once and then shared, read-only, from the
// model store to every task.
//
// The model builder produces this from training logs; the model store keeps
// versions of it; the model controller rebroadcasts it into the running
// pipeline. It carries the discovered GROK pattern set (stateless parser
// model), the sequence model (ID fields + automata), and the tokenizer the
// patterns were discovered under: every consumer that parses with the model
// takes its Preprocessor from make_preprocessor(), so a model is always
// parsed with the tokenizer it was trained with. JSON is its form on disk
// (checkpoints, model files) and nowhere else.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "automata/model.h"
#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "detectors/field_range.h"
#include "detectors/keyword.h"
#include "grok/pattern.h"
#include "json/json.h"
#include "tokenize/preprocessor.h"

namespace loglens {

struct CompositeModel {
  std::vector<GrokPattern> patterns;
  SequenceModel sequence;
  // Optional extension detectors (empty when the builder did not learn
  // them): KPI range profiles and the keyword allowlist. Without a keyword
  // model the JSON holds "keywords": {} and no log is keyword-checked.
  FieldRangeModel field_ranges;
  std::optional<KeywordDetector> keyword_model;
  // Serialized as a "tokenizer" section only when it is not the default, so
  // default-tokenizer models keep the JSON they had before the section
  // existed.
  PreprocessorOptions tokenizer;

  Json to_json() const;
  // Rejects, among other malformed input, a tokenizer whose split rules or
  // timestamp formats do not compile.
  static StatusOr<CompositeModel> from_json(const Json& j);

  // A fresh preprocessor for `tokenizer`. Every model that came through
  // from_json (the model store, a broadcast, a model file) has one that
  // compiles; a model built in code with one that does not throws
  // std::invalid_argument here.
  Preprocessor make_preprocessor() const;

  friend bool operator==(const CompositeModel&, const CompositeModel&) = default;
};

// Pattern-set (de)serialization, reused by model editing tools.
Json patterns_to_json(const std::vector<GrokPattern>& patterns);
StatusOr<std::vector<GrokPattern>> patterns_from_json(const Json& j);

// Versioned named models (Model Storage). A version is the loaded, checked
// model itself, immutable once stored: the controller broadcasts that same
// object to every stage, and readers share it rather than parse or copy it.
// Only the latest kKeptVersions versions of a name stay stored: a loaded
// model is several times the size of its JSON, and a service that redeploys
// every second must not grow with its run time.
class ModelStore {
 public:
  static constexpr size_t kKeptVersions = 2;  // the deployed one + rollback

  struct Entry {
    int version = 0;
    std::shared_ptr<const CompositeModel> model;
  };

  // Stores a new version of `name`; returns the version number (1-based).
  // Re-adding a deleted model revives it with the next version.
  int put(std::string_view name, std::shared_ptr<const CompositeModel> model)
      LOGLENS_EXCLUDES(mu_);

  // Latest version, or nullopt if the model does not exist / was deleted.
  std::optional<Entry> latest(std::string_view name) const
      LOGLENS_EXCLUDES(mu_);
  // nullopt also for a version older than the kept ones.
  std::optional<Entry> version(std::string_view name, int version) const
      LOGLENS_EXCLUDES(mu_);

  // Marks the model deleted (latest() stops returning it).
  void remove(std::string_view name) LOGLENS_EXCLUDES(mu_);

  // Models not deleted, by name.
  std::vector<std::string> names() const LOGLENS_EXCLUDES(mu_);

 private:
  struct Versions {
    int latest = 0;
    std::deque<std::shared_ptr<const CompositeModel>> models;  // ..., latest
    bool deleted = false;
  };

  // Storage tier: written under the service's recovery lock, never while
  // holding anything ranked deeper.
  mutable RankedMutex mu_{lock_rank::kStorage};
  std::map<std::string, Versions, std::less<>> models_ LOGLENS_GUARDED_BY(mu_);
};

}  // namespace loglens
