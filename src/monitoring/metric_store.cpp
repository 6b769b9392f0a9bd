#include "monitoring/metric_store.h"

#include <algorithm>

namespace grid3::monitoring {

void MetricStore::append(MetricId id, Time t, double value) {
  util::TimeSeries& s = series_.at_or_grow(id);
  if (s.empty()) ids_.push_back(id);
  s.append(t, value);
}

const util::TimeSeries& MetricStore::series(const std::string& site,
                                            const std::string& name) const {
  const util::TimeSeries* s = series_.find(bus_.find(site, name));
  return s == nullptr ? empty_ : *s;
}

void MetricStore::for_each(const std::string& pattern,
                           const Visitor& visit) const {
  std::vector<MetricId> hits;
  for (MetricId id : ids_) {
    if (name_matches(pattern, bus_.key(id).name)) hits.push_back(id);
  }
  std::sort(hits.begin(), hits.end(), [this](MetricId a, MetricId b) {
    return bus_.key(a) < bus_.key(b);
  });
  for (MetricId id : hits) visit(bus_.key(id), *series_.find(id));
}

}  // namespace grid3::monitoring
