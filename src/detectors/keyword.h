// Keyword-based stateless detection.
//
// The paper's canonical stateless example is "identifying errors or warnings
// in operational logs" (Section I) — no state needed, each log judged alone.
// This detector flags logs containing severity keywords (error, fatal,
// exception, ...), with a twist that keeps it unsupervised in spirit: any
// keyword-bearing token observed during *normal* runs is allowlisted, so a
// component legitimately named "failover-manager" never alarms.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "storage/anomaly.h"

namespace loglens {

// The keyword list is fixed (error, fatal, exception, fail, failed, panic,
// critical, corrupt, timeout) and tokens are matched case-folded.
class KeywordDetector {
 public:
  // Training pass: tokens containing a keyword in normal logs are noise by
  // definition and get allowlisted.
  void observe_normal(std::string_view raw);

  // Detection pass: returns an anomaly when the log contains a keyword
  // token that was never seen during normal runs.
  std::optional<Anomaly> check(std::string_view raw, std::string_view source,
                               int64_t timestamp_ms) const;

  // Feedback: a token a human accepted as normal stops alerting.
  void allow(std::string token) { allowlist_.insert(std::move(token)); }

  size_t allowlist_size() const { return allowlist_.size(); }

  Json to_json() const;
  static StatusOr<KeywordDetector> from_json(const Json& j);

  friend bool operator==(const KeywordDetector&,
                         const KeywordDetector&) = default;

 private:
  std::set<std::string> allowlist_;  // normalized tokens seen in normal runs
};

}  // namespace loglens
