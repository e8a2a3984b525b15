#include "storage/stores.h"

namespace loglens {

void AnomalyStore::add(const Anomaly& anomaly) {
  store_.insert(anomaly.to_json());
}

std::vector<Anomaly> AnomalyStore::all() const {
  std::vector<Anomaly> out;
  for (const auto& doc : store_.query(Query{})) {
    auto a = Anomaly::from_json(doc);
    if (a.ok()) out.push_back(std::move(a.value()));
  }
  return out;
}

std::vector<Anomaly> AnomalyStore::by_type(AnomalyType type) const {
  Query q;
  q.clauses.push_back(
      QueryClause::Term("type", std::string(anomaly_type_name(type))));
  std::vector<Anomaly> out;
  for (const auto& doc : store_.query(q)) {
    auto a = Anomaly::from_json(doc);
    if (a.ok()) out.push_back(std::move(a.value()));
  }
  return out;
}

size_t AnomalyStore::count_by_type(AnomalyType type) const {
  Query q;
  q.clauses.push_back(
      QueryClause::Term("type", std::string(anomaly_type_name(type))));
  return store_.count(q);
}

}  // namespace loglens
