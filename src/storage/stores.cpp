#include "storage/stores.h"

namespace loglens {

namespace {

std::vector<Anomaly> parse_all(const std::vector<std::string>& rows) {
  std::vector<Anomaly> out;
  out.reserve(rows.size());
  for (const std::string& row : rows) {
    auto doc = Json::parse(row);
    if (!doc.ok()) continue;
    auto a = Anomaly::from_json(doc.value());
    if (a.ok()) out.push_back(std::move(a.value()));
  }
  return out;
}

}  // namespace

AnomalyStore::AnomalyStore() : AnomalyStore(DocumentStoreOptions{}) {}

AnomalyStore::AnomalyStore(DocumentStoreOptions options)
    : table_(std::move(options), SegmentKind::kAnomalies) {}

void AnomalyStore::add(const Anomaly& anomaly) {
  table_.add(anomaly_type_name(anomaly.type), anomaly.to_json().dump(),
             anomaly.timestamp_ms);
}

std::vector<Anomaly> AnomalyStore::all() const {
  return parse_all(table_.fetch_all());
}

std::vector<Anomaly> AnomalyStore::by_type(AnomalyType type) const {
  return parse_all(table_.fetch(anomaly_type_name(type)));
}

size_t AnomalyStore::count_by_type(AnomalyType type) const {
  return table_.count(anomaly_type_name(type));
}

std::vector<Anomaly> AnomalyStore::window(AnomalyType type, int64_t from_ms,
                                          int64_t to_ms,
                                          QueryStats* stats) const {
  return parse_all(table_.fetch(anomaly_type_name(type), from_ms, to_ms,
                                SIZE_MAX, stats));
}

std::optional<Json> AnomalyStore::get(uint64_t id) const {
  auto row = table_.get(id);
  if (!row) return std::nullopt;
  auto doc = Json::parse(*row);
  if (!doc.ok()) return std::nullopt;
  return std::move(doc.value());
}

}  // namespace loglens
