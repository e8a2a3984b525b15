// Message record shared by the broker and the streaming engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace loglens {

// Base of the typed records stage boundaries ship (parsed logs, anomalies;
// the concrete types live in service/wire.h). A record rides as a
// refcounted immutable object, so a consumer in the same process reads the
// producer's object and every broker fetch copies one shared_ptr.
struct MessagePayload {
  virtual ~MessagePayload() = default;
};

// What a message carries. The paper routes heartbeats on the same data
// channel "with a specific tag to indicate that it is a heartbeat message";
// kMetrics marks the JobRunner's periodic health reports and kAnomaly an
// anomaly record travelling between stages (service/wire.h).
enum class MessageTag : uint8_t { kData, kHeartbeat, kMetrics, kAnomaly };

// A message has at most one body, never both:
//  - `value`: raw text — a log line (kData on the ingest and logs topics) or
//    a job's JSON health report (kMetrics);
//  - `payload`: a typed record — a ParsedLog (kData on the parsed topic) or
//    an Anomaly (kAnomaly), read through the service/wire.h accessors.
// Heartbeats carry neither; their timestamp is the whole message.
struct Message {
  std::string key;        // partitioning key (e.g. event id or source)
  std::string value;      // text body (see above); empty for typed records
  int64_t timestamp_ms = -1;  // log time, not wall time
  MessageTag tag = MessageTag::kData;
  std::string source;     // originating log source
  // Delivery identity, not content: a per-source-monotonic sequence number.
  // The broker stamps it (with the partition append offset) on the first
  // produce of a message that carries none; pipeline stages that re-emit a
  // message derive the child's seq from the parent's, so one logical record
  // keeps one identity across stages. The detector task's at-least-once
  // dedup guard compares these (see docs/FAULTS.md). -1 = unassigned.
  int64_t seq = -1;

  // Trace metadata (trace/trace.h), stamped by Broker::produce: the trace
  // this message belongs to (inherited from the producer's TraceContext, or
  // fresh at the pipeline edge), the producer-side span downstream work
  // parents to, and the produce timestamp that lets the consumer attribute
  // queue wait. Like seq, redelivery preserves them. 0 = untraced.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  uint64_t enqueue_us = 0;

  // Typed body (see above), immutable and shared across fetched copies.
  std::shared_ptr<const MessagePayload> payload;
};

}  // namespace loglens
