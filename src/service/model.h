// The composite LogLens model: everything the streaming stages need, bundled
// as one broadcastable, JSON-serializable blob.
//
// The model builder produces this from training logs; the model store keeps
// versions of it; the model controller rebroadcasts it into the running
// pipeline. It carries the discovered GROK pattern set (stateless parser
// model), the sequence model (ID fields + automata), and the tokenizer the
// patterns were discovered under: every consumer that parses with the model
// takes its Preprocessor from make_preprocessor(), so a model is always
// parsed with the tokenizer it was trained with.
#pragma once

#include <string>
#include <vector>

#include "automata/model.h"
#include "common/status.h"
#include "detectors/field_range.h"
#include "grok/pattern.h"
#include "json/json.h"
#include "tokenize/preprocessor.h"

namespace loglens {

struct CompositeModel {
  std::vector<GrokPattern> patterns;
  SequenceModel sequence;
  // Optional extension detectors (empty when the builder did not learn
  // them): KPI range profiles and the keyword allowlist.
  FieldRangeModel field_ranges;
  Json keyword_model = Json(JsonObject{});
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

}  // namespace loglens
