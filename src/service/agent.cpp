#include "service/agent.h"

namespace loglens {

Agent::Agent(Broker& broker, AgentOptions options)
    : broker_(broker), options_(std::move(options)) {}

void Agent::send_line(std::string_view line) {
  Message m;
  m.key = options_.source;
  m.value = std::string(line);
  m.tag = MessageTag::kData;
  m.source = options_.source;
  broker_.produce(options_.topic, std::move(m));
  ++lines_sent_;
}

void Agent::replay(const std::vector<std::string>& lines) {
  for (const auto& l : lines) send_line(l);
}

}  // namespace loglens
