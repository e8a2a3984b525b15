#include "storage/stores.h"

namespace loglens {

void LogStore::add(std::string_view source, std::string_view raw,
                   int64_t ts_ms) {
  JsonObject obj;
  obj.emplace_back("source", Json(source));
  obj.emplace_back("raw", Json(raw));
  obj.emplace_back("ts", Json(ts_ms));
  store_.insert(Json(std::move(obj)));
}

std::vector<std::string> LogStore::fetch(std::string_view source,
                                         int64_t from_ms, int64_t to_ms,
                                         size_t limit) const {
  Query q;
  q.clauses.push_back(QueryClause::Term("source", std::string(source)));
  if (from_ms != INT64_MIN || to_ms != INT64_MAX) {
    q.clauses.push_back(QueryClause::Range("ts", from_ms, to_ms));
  }
  q.limit = limit;
  std::vector<std::string> out;
  for (const auto& doc : store_.query(q)) {
    out.emplace_back(doc.get_string("raw"));
  }
  return out;
}

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
