// Wire encoding between pipeline stages.
//
// The parser stage publishes parsed logs (and stateless anomalies) to the
// "parsed" topic; the detector stage publishes anomalies to the "anomalies"
// topic. Single-line JSON in Message::value is the durable wire form; the
// hot path between in-process stages additionally rides the broker's typed
// payload fast path (broker/message.h):
//
//  - parsed logs travel payload-only (`value` empty): the parser moves its
//    ParsedLog into a refcounted ParsedPayload and the detector reads it by
//    pointer — no JSON dump, no JSON parse, no deep copy per fetch. A
//    parsed message that somehow arrives without a payload (a hand-built
//    test message, a future cross-process transport) falls back to the JSON
//    decoder.
//  - anomalies keep the serialized `value` (they are rare, durable output —
//    the anomaly store rebuilds from the topic after recovery, and tests
//    compare values) and carry the payload besides, so in-process readers
//    still skip the re-parse.
//
// Decoders always prefer the payload and fall back to parsing `value`.
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

// ParsedLog <-> Message. `key` is the event-id content when known (for keyed
// partitioning in the detector stage), otherwise the source. The && overload
// is the parser's hot path (moves the log into the payload); the const&
// overload copies.
Message parsed_to_message(ParsedLog&& log, std::string key,
                          std::string source);
Message parsed_to_message(const ParsedLog& log, std::string key,
                          std::string source);
StatusOr<ParsedLog> parsed_from_message(const Message& m);
// Zero-copy read: the payload's ParsedLog, or nullptr when this message
// carries none (then go through parsed_from_message).
const ParsedLog* parsed_payload_view(const Message& m);

Message anomaly_to_message(const Anomaly& anomaly);
StatusOr<Anomaly> anomaly_from_message(const Message& m);
const Anomaly* anomaly_payload_view(const Message& m);

}  // namespace loglens
