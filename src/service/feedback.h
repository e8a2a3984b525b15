// Closing the human-validation loop.
//
// The paper's lesson learned: "we have to provide options to users for
// incorporating their domain knowledge during model building as well as
// allow them to edit automatically generated models to improve the accuracy
// of the anomaly detection results" (Section VIII). Anomalies sit in the
// anomaly store "for human validation" — this component is what a validating
// human clicks: marking an anomaly as *normal behaviour* turns its
// structured details into the precise model edit that stops that behaviour
// from alarming, deployed live through the model manager (so the running
// pipeline picks it up between micro-batches).
//
// Edit per anomaly type:
//   UNPARSED_LOG            -> learn a pattern from the log line and add it
//   MISSING_BEGIN_STATE     -> accept the observed first pattern as a begin
//   MISSING_END_STATE       -> accept the observed last pattern as an end
//   MISSING_INTERMEDIATE    -> drop that state's minimum occurrence to 0
//   OCCURRENCE_VIOLATION    -> widen the state's min/max to the observed count
//   DURATION_VIOLATION      -> widen the automaton's duration window
//   UNKNOWN_TRANSITION      -> add the observed transition
//   KEYWORD_ALERT           -> allowlist the offending token (refused when
//                              the model has no keyword detector)
//   VALUE_OUT_OF_RANGE      -> widen the field's learned range
#pragma once

#include <string>

#include "service/model_ops.h"
#include "storage/anomaly.h"

namespace loglens {

class FeedbackHandler {
 public:
  FeedbackHandler(ModelManager& manager, std::string model_name)
      : manager_(manager), model_name_(std::move(model_name)) {}

  // Marks `anomaly` as normal behaviour; edits and redeploys the model.
  // Returns a description of the edit applied.
  StatusOr<std::string> accept_as_normal(const Anomaly& anomaly);

 private:
  ModelManager& manager_;
  std::string model_name_;
};

// The pattern-learning half of UNPARSED_LOG feedback, exposed for reuse:
// builds a GROK pattern from one raw line, tokenized with `model`'s
// tokenizer, by keeping WORD tokens as literals and generalizing everything
// else to its datatype.
GrokPattern pattern_from_line(const CompositeModel& model,
                              std::string_view raw, int pattern_id);

}  // namespace loglens
