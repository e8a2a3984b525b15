// Minimal JSON value model, parser, and serializer.
//
// The stateless parser emits parsed logs as JSON objects (Section III of the
// paper: {"Action":"Connect","Server":"127.0.0.1",...}), and the anomaly
// store keeps each anomaly as its JSON text. Objects preserve insertion
// order so the emitted fields appear in pattern order, which keeps parsed
// output stable and diff-friendly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace loglens {

class Json;
using JsonArray = std::vector<Json>;
// Insertion-ordered object; lookups are linear, which is fine for log records
// with tens of fields.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                 // NOLINT
  Json(bool b) : value_(b) {}                               // NOLINT
  Json(int v) : value_(static_cast<int64_t>(v)) {}          // NOLINT
  Json(int64_t v) : value_(v) {}                            // NOLINT
  Json(double v) : value_(v) {}                             // NOLINT
  Json(const char* s) : value_(std::string(s)) {}           // NOLINT
  Json(std::string s) : value_(std::move(s)) {}             // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}      // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}               // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}              // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  int64_t as_int() const {
    return is_double() ? static_cast<int64_t>(std::get<double>(value_))
                       : std::get<int64_t>(value_);
  }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(value_))
                    : std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  // Makes this value a string and returns it for in-place assembly. When the
  // value already holds a string its storage (capacity) is preserved — the
  // parser hot path reuses field-value slots this way without reallocating.
  std::string& emplace_string() {
    if (auto* s = std::get_if<std::string>(&value_)) return *s;
    value_ = std::string();
    return std::get<std::string>(value_);
  }

  // Object helpers. find() returns nullptr when the key is absent or this is
  // not an object; set() appends or overwrites.
  const Json* find(std::string_view key) const;
  void set(std::string_view key, Json value);

  // String field with default.
  std::string_view get_string(std::string_view key,
                              std::string_view fallback = "") const;
  int64_t get_int(std::string_view key, int64_t fallback = 0) const;

  // Compact single-line serialization (JSONL-safe).
  std::string dump() const;
  void dump_to(std::string& out) const;

  static StatusOr<Json> parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// Escapes `s` as a JSON string literal (with surrounding quotes) into `out`.
void json_escape(std::string_view s, std::string& out);

}  // namespace loglens
