#include "monitoring/metric_store.h"

#include <algorithm>
#include <vector>

namespace grid3::monitoring {

std::size_t MetricKeyHash::operator()(const MetricKey& key) const noexcept {
  const std::size_t site = std::hash<std::string>{}(key.site);
  const std::size_t name = std::hash<std::string>{}(key.name);
  return site ^ (name + 0x9e3779b97f4a7c15ULL + (site << 6) + (site >> 2));
}

void MetricStore::append(const MetricKey& key, Time t, double value) {
  series_[key].append(t, value);
}

const util::TimeSeries& MetricStore::series(const std::string& site,
                                            const std::string& name) const {
  auto it = series_.find({site, name});
  return it == series_.end() ? empty_ : it->second;
}

void MetricStore::for_each(const std::string& pattern,
                           const Visitor& visit) const {
  std::vector<const decltype(series_)::value_type*> hits;
  for (const auto& entry : series_) {
    if (name_matches(pattern, entry.first.name)) hits.push_back(&entry);
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : hits) visit(entry->first, entry->second);
}

}  // namespace grid3::monitoring
