// Message record shared by the broker and the streaming engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace loglens {

// Base of the typed in-process payload fast path. Stage boundaries ship
// structured records (parsed logs, anomalies) as a refcounted immutable
// object attached to the Message, so a consumer in the same process reads
// the producer's object instead of re-parsing `value` — and every broker
// fetch copies one shared_ptr instead of a serialized string. The JSON
// `value` remains the durable wire form (see service/wire.h for the
// concrete payload types and the JSON fallback rules).
struct MessagePayload {
  virtual ~MessagePayload() = default;
};

// What a message carries. The paper routes heartbeats on the same data
// channel "with a specific tag to indicate that it is a heartbeat message";
// kMetrics marks the JobRunner's periodic health reports and kAnomaly an
// anomaly record travelling between stages (service/wire.h).
enum class MessageTag : uint8_t { kData, kHeartbeat, kMetrics, kAnomaly };

struct Message {
  std::string key;        // partitioning key (e.g. event id or source)
  std::string value;      // payload (raw log line or serialized instruction)
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

  // Optional typed payload (immutable, shared across fetched copies). When
  // set, `value` may be empty — readers go through the wire.h decoders,
  // which prefer the payload and fall back to parsing `value`.
  std::shared_ptr<const MessagePayload> payload;

  // Equality is content equality; seq and the trace fields are delivery
  // metadata (a redelivered copy of a message is still the same message).
  friend bool operator==(const Message& a, const Message& b) {
    return a.key == b.key && a.value == b.value &&
           a.timestamp_ms == b.timestamp_ms && a.tag == b.tag &&
           a.source == b.source;
  }
};

}  // namespace loglens
