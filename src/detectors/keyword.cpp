#include "detectors/keyword.h"

#include <array>

#include "common/strings.h"

namespace loglens {

namespace {

// The severity keywords, lower case.
constexpr std::array<std::string_view, 9> kKeywords = {
    "error", "fatal",    "exception", "fail",   "failed",
    "panic", "critical", "corrupt",   "timeout"};

// Returns the first keyword contained in the case-folded `token`, or empty.
std::string_view keyword_in(std::string_view token) {
  for (std::string_view k : kKeywords) {
    if (token.find(k) != std::string_view::npos) return k;
  }
  return {};
}

}  // namespace

void KeywordDetector::observe_normal(std::string_view raw) {
  for (std::string_view tok : split_any(raw, " \t")) {
    std::string norm = to_lower(tok);
    if (!keyword_in(norm).empty()) {
      allowlist_.insert(std::move(norm));
    }
  }
}

std::optional<Anomaly> KeywordDetector::check(std::string_view raw,
                                              std::string_view source,
                                              int64_t timestamp_ms) const {
  for (std::string_view tok : split_any(raw, " \t")) {
    std::string norm = to_lower(tok);
    std::string_view keyword = keyword_in(norm);
    if (keyword.empty() || allowlist_.contains(norm)) continue;
    Anomaly a;
    a.type = AnomalyType::kKeywordAlert;
    a.severity = "medium";
    a.reason = "token '" + std::string(tok) + "' contains severity keyword '" +
               std::string(keyword) + "' never seen in normal runs";
    a.timestamp_ms = timestamp_ms;
    a.source = std::string(source);
    a.logs = {std::string(raw)};
    a.details = Json(JsonObject{{"token", Json(norm)}});
    return a;
  }
  return std::nullopt;
}

Json KeywordDetector::to_json() const {
  JsonArray allow;
  for (const auto& t : allowlist_) allow.emplace_back(t);
  JsonObject obj;
  obj.emplace_back("allowlist", Json(std::move(allow)));
  return Json(std::move(obj));
}

StatusOr<KeywordDetector> KeywordDetector::from_json(const Json& j) {
  if (!j.is_object()) {
    return StatusOr<KeywordDetector>::Error("keyword model not an object");
  }
  KeywordDetector d;
  if (const Json* allow = j.find("allowlist");
      allow != nullptr && allow->is_array()) {
    for (const auto& t : allow->as_array()) {
      if (t.is_string()) d.allowlist_.insert(t.as_string());
    }
  }
  return d;
}

}  // namespace loglens
