#include "service/model.h"

#include <stdexcept>

namespace loglens {

Json patterns_to_json(const std::vector<GrokPattern>& patterns) {
  JsonArray arr;
  arr.reserve(patterns.size());
  for (const auto& p : patterns) {
    JsonObject obj;
    obj.emplace_back("id", Json(static_cast<int64_t>(p.id())));
    obj.emplace_back("grok", Json(p.to_string()));
    arr.emplace_back(Json(std::move(obj)));
  }
  return Json(std::move(arr));
}

StatusOr<std::vector<GrokPattern>> patterns_from_json(const Json& j) {
  if (!j.is_array()) {
    return StatusOr<std::vector<GrokPattern>>::Error("patterns not an array");
  }
  std::vector<GrokPattern> out;
  out.reserve(j.as_array().size());
  for (const auto& pj : j.as_array()) {
    auto p = GrokPattern::parse(pj.get_string("grok"));
    if (!p.ok()) return StatusOr<std::vector<GrokPattern>>(p.status());
    p.value().set_id(static_cast<int>(pj.get_int("id")));
    out.push_back(std::move(p.value()));
  }
  return out;
}

namespace {

Json tokenizer_to_json(const PreprocessorOptions& t) {
  JsonArray rules;
  for (const auto& r : t.split_rules) {
    rules.emplace_back(
        JsonObject{{"match", Json(r.match)}, {"rewrite", Json(r.rewrite)}});
  }
  JsonArray formats;
  for (const auto& f : t.timestamp_formats) formats.emplace_back(f);
  JsonObject obj;
  obj.emplace_back("delimiters", Json(t.delimiters));
  obj.emplace_back("split_rules", Json(std::move(rules)));
  obj.emplace_back("timestamp_formats", Json(std::move(formats)));
  return Json(std::move(obj));
}

// Absent keys keep their defaults. The split rules and timestamp formats
// must compile: a model whose tokenizer cannot be built parses nothing.
StatusOr<PreprocessorOptions> tokenizer_from_json(const Json& j) {
  using Result = StatusOr<PreprocessorOptions>;
  if (!j.is_object()) return Result::Error("tokenizer not an object");
  PreprocessorOptions t;
  if (const Json* d = j.find("delimiters"); d != nullptr) {
    if (!d->is_string()) return Result::Error("delimiters not a string");
    t.delimiters = d->as_string();
  }
  if (const Json* rules = j.find("split_rules"); rules != nullptr) {
    if (!rules->is_array()) return Result::Error("split_rules not an array");
    for (const auto& r : rules->as_array()) {
      const Json* match = r.find("match");
      const Json* rewrite = r.find("rewrite");
      if (match == nullptr || !match->is_string() || rewrite == nullptr ||
          !rewrite->is_string()) {
        return Result::Error("split rule needs string match and rewrite");
      }
      t.split_rules.push_back({match->as_string(), rewrite->as_string()});
    }
  }
  if (const Json* formats = j.find("timestamp_formats"); formats != nullptr) {
    if (!formats->is_array()) {
      return Result::Error("timestamp_formats not an array");
    }
    for (const auto& f : formats->as_array()) {
      if (!f.is_string()) return Result::Error("timestamp format not a string");
      t.timestamp_formats.push_back(f.as_string());
    }
  }
  if (auto pre = Preprocessor::create(t); !pre.ok()) {
    return Result(pre.status());
  }
  return t;
}

}  // namespace

Json CompositeModel::to_json() const {
  JsonObject obj;
  obj.emplace_back("patterns", patterns_to_json(patterns));
  obj.emplace_back("sequence", sequence.to_json());
  obj.emplace_back("field_ranges", field_ranges.to_json());
  obj.emplace_back("keywords", keyword_model.has_value()
                                   ? keyword_model->to_json()
                                   : Json(JsonObject{}));
  if (tokenizer != PreprocessorOptions{}) {
    obj.emplace_back("tokenizer", tokenizer_to_json(tokenizer));
  }
  return Json(std::move(obj));
}

StatusOr<CompositeModel> CompositeModel::from_json(const Json& j) {
  if (!j.is_object()) {
    return StatusOr<CompositeModel>::Error("model not an object");
  }
  CompositeModel m;
  const Json* pj = j.find("patterns");
  if (pj == nullptr) return StatusOr<CompositeModel>::Error("missing patterns");
  auto patterns = patterns_from_json(*pj);
  if (!patterns.ok()) return StatusOr<CompositeModel>(patterns.status());
  m.patterns = std::move(patterns.value());
  if (const Json* sj = j.find("sequence"); sj != nullptr) {
    auto seq = SequenceModel::from_json(*sj);
    if (!seq.ok()) return StatusOr<CompositeModel>(seq.status());
    m.sequence = std::move(seq.value());
  }
  if (const Json* rj = j.find("field_ranges"); rj != nullptr) {
    auto ranges = FieldRangeModel::from_json(*rj);
    if (!ranges.ok()) return StatusOr<CompositeModel>(ranges.status());
    m.field_ranges = std::move(ranges.value());
  }
  // An empty object is a model without keyword detection.
  if (const Json* kj = j.find("keywords");
      kj != nullptr && !(kj->is_object() && kj->as_object().empty())) {
    auto keywords = KeywordDetector::from_json(*kj);
    if (!keywords.ok()) return StatusOr<CompositeModel>(keywords.status());
    m.keyword_model = std::move(keywords.value());
  }
  if (const Json* tj = j.find("tokenizer"); tj != nullptr) {
    auto tokenizer = tokenizer_from_json(*tj);
    if (!tokenizer.ok()) return StatusOr<CompositeModel>(tokenizer.status());
    m.tokenizer = std::move(tokenizer.value());
  }
  return m;
}

Preprocessor CompositeModel::make_preprocessor() const {
  auto pre = Preprocessor::create(tokenizer);
  if (!pre.ok()) throw std::invalid_argument(pre.status().message());
  return std::move(pre.value());
}

int ModelStore::put(std::string_view name,
                    std::shared_ptr<const CompositeModel> model) {
  RankedMutexLock lock(mu_);
  Versions& v = models_[std::string(name)];
  v.models.push_back(std::move(model));
  if (v.models.size() > kKeptVersions) v.models.pop_front();
  v.deleted = false;
  return ++v.latest;
}

std::optional<ModelStore::Entry> ModelStore::latest(
    std::string_view name) const {
  RankedMutexLock lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end() || it->second.deleted) return std::nullopt;
  return Entry{it->second.latest, it->second.models.back()};
}

std::optional<ModelStore::Entry> ModelStore::version(std::string_view name,
                                                     int version) const {
  RankedMutexLock lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end() || version < 1 || version > it->second.latest) {
    return std::nullopt;
  }
  const Versions& v = it->second;
  const auto back = static_cast<size_t>(v.latest - version);  // 0: latest
  if (back >= v.models.size()) return std::nullopt;
  return Entry{version, v.models[v.models.size() - 1 - back]};
}

void ModelStore::remove(std::string_view name) {
  RankedMutexLock lock(mu_);
  if (auto it = models_.find(name); it != models_.end()) {
    it->second.deleted = true;
  }
}

std::vector<std::string> ModelStore::names() const {
  RankedMutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, v] : models_) {
    if (!v.deleted) out.push_back(name);
  }
  return out;
}

}  // namespace loglens
