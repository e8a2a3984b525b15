// Typed records between pipeline stages.
//
// The parser stage publishes parsed logs (and stateless anomalies) to the
// "parsed" topic; the detector stage publishes anomalies to the "anomalies"
// topic. Every stage runs in one process, so these records travel as typed
// payloads and never as text: a parsed-log or anomaly message carries its
// record in `payload` and leaves `value` empty (the one-body rule of
// broker/message.h). The producer moves its record into a refcounted
// payload; a consumer reads it by pointer — no serialization, no parse, no
// deep copy per fetch. JSON is produced only where records are stored: the
// anomaly store's documents and the service checkpoint.
//
// A message without the expected payload is malformed: the accessors return
// nullptr (or an error) and the caller drops it.
#pragma once

#include <memory>
#include <string>

#include "broker/message.h"
#include "common/status.h"
#include "parser/log_parser.h"
#include "storage/anomaly.h"

namespace loglens {

struct ParsedPayload final : MessagePayload {
  explicit ParsedPayload(ParsedLog l) : log(std::move(l)) {}
  ParsedLog log;
};

struct AnomalyPayload final : MessagePayload {
  explicit AnomalyPayload(Anomaly a) : anomaly(std::move(a)) {}
  Anomaly anomaly;
};

// ParsedLog -> Message, moving the log into the payload. `key` is the
// event-id content when known (for keyed partitioning in the detector
// stage), otherwise the source.
Message parsed_to_message(ParsedLog&& log, std::string key,
                          std::string source);
// The message's ParsedLog, read in place, or nullptr when it carries none.
const ParsedLog* parsed_payload_view(const Message& m);

// Anomaly -> Message, moving the anomaly into the payload.
Message anomaly_to_message(Anomaly anomaly);
// A copy of the message's Anomaly; an error when it carries none.
StatusOr<Anomaly> anomaly_from_message(const Message& m);

}  // namespace loglens
