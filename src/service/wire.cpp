#include "service/wire.h"

namespace loglens {

namespace {

Message parsed_envelope(const ParsedLog& log, std::string key,
                        std::string source) {
  Message m;
  m.key = std::move(key);
  m.timestamp_ms = log.timestamp_ms;
  m.tag = MessageTag::kData;
  m.source = std::move(source);
  return m;
}

}  // namespace

Message parsed_to_message(ParsedLog&& log, std::string key,
                          std::string source) {
  Message m = parsed_envelope(log, std::move(key), std::move(source));
  m.payload = std::make_shared<const ParsedPayload>(std::move(log));
  return m;
}

Message parsed_to_message(const ParsedLog& log, std::string key,
                          std::string source) {
  Message m = parsed_envelope(log, std::move(key), std::move(source));
  m.payload = std::make_shared<const ParsedPayload>(log);
  return m;
}

const ParsedLog* parsed_payload_view(const Message& m) {
  auto* p = dynamic_cast<const ParsedPayload*>(m.payload.get());
  return p == nullptr ? nullptr : &p->log;
}

StatusOr<ParsedLog> parsed_from_message(const Message& m) {
  if (const ParsedLog* log = parsed_payload_view(m)) return *log;
  auto j = Json::parse(m.value);
  if (!j.ok()) return StatusOr<ParsedLog>(j.status());
  const Json& obj = j.value();
  ParsedLog log;
  log.pattern_id = static_cast<int>(obj.get_int("pattern_id"));
  log.timestamp_ms = obj.get_int("ts", -1);
  log.raw = std::string(obj.get_string("raw"));
  if (const Json* fields = obj.find("fields");
      fields != nullptr && fields->is_object()) {
    log.fields = fields->as_object();
  }
  return log;
}

Message anomaly_to_message(const Anomaly& anomaly) {
  Message m;
  m.key = anomaly.event_id.empty() ? anomaly.source : anomaly.event_id;
  m.value = anomaly.to_json().dump();
  m.timestamp_ms = anomaly.timestamp_ms;
  m.tag = MessageTag::kAnomaly;
  m.source = anomaly.source;
  m.payload = std::make_shared<const AnomalyPayload>(anomaly);
  return m;
}

const Anomaly* anomaly_payload_view(const Message& m) {
  auto* p = dynamic_cast<const AnomalyPayload*>(m.payload.get());
  return p == nullptr ? nullptr : &p->anomaly;
}

StatusOr<Anomaly> anomaly_from_message(const Message& m) {
  if (const Anomaly* a = anomaly_payload_view(m)) return *a;
  auto j = Json::parse(m.value);
  if (!j.ok()) return StatusOr<Anomaly>(j.status());
  return Anomaly::from_json(j.value());
}

}  // namespace loglens
