// The series store a bus consumer keeps for the samples it collects:
// one exact step series per (site, name) key, found by hash on every
// sample and enumerated in sorted key order for grid-wide queries.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>

#include "monitoring/bus.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace grid3::monitoring {

/// Combined hash of a key's site and name.
struct MetricKeyHash {
  [[nodiscard]] std::size_t operator()(const MetricKey& key) const noexcept;
};

class MetricStore {
 public:
  using Visitor =
      std::function<void(const MetricKey&, const util::TimeSeries&)>;

  /// Append a sample to the key's series (created on its first sample).
  void append(const MetricKey& key, Time t, double value);

  /// The key's series; empty when it never received a sample.
  [[nodiscard]] const util::TimeSeries& series(const std::string& site,
                                               const std::string& name) const;

  /// Visit every key whose name matches `pattern` (see name_matches) in
  /// sorted (site, name) order, so sums over the visit do not depend on
  /// hash order.
  void for_each(const std::string& pattern, const Visitor& visit) const;

  [[nodiscard]] std::size_t size() const { return series_.size(); }

 private:
  std::unordered_map<MetricKey, util::TimeSeries, MetricKeyHash> series_;
  util::TimeSeries empty_;
};

}  // namespace grid3::monitoring
