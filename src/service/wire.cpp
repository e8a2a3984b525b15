#include "service/wire.h"

namespace loglens {

Message parsed_to_message(ParsedLog&& log, std::string key,
                          std::string source) {
  Message m;
  m.key = std::move(key);
  m.timestamp_ms = log.timestamp_ms;
  m.tag = MessageTag::kData;
  m.source = std::move(source);
  m.payload = std::make_shared<const ParsedPayload>(std::move(log));
  return m;
}

const ParsedLog* parsed_payload_view(const Message& m) {
  auto* p = dynamic_cast<const ParsedPayload*>(m.payload.get());
  return p == nullptr ? nullptr : &p->log;
}

Message anomaly_to_message(Anomaly anomaly) {
  Message m;
  m.key = anomaly.event_id.empty() ? anomaly.source : anomaly.event_id;
  m.timestamp_ms = anomaly.timestamp_ms;
  m.tag = MessageTag::kAnomaly;
  m.source = anomaly.source;
  m.payload = std::make_shared<const AnomalyPayload>(std::move(anomaly));
  return m;
}

StatusOr<Anomaly> anomaly_from_message(const Message& m) {
  auto* p = dynamic_cast<const AnomalyPayload*>(m.payload.get());
  if (p == nullptr) {
    return StatusOr<Anomaly>(Status::Error("message carries no anomaly"));
  }
  return p->anomaly;
}

}  // namespace loglens
