// The series store a bus consumer keeps for the samples it collects:
// one step series per metric key, in a dense table indexed by the bus's
// MetricId, enumerated in sorted key order for grid-wide queries.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/ids.h"
#include "monitoring/bus.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace grid3::monitoring {

class MetricStore {
 public:
  using Visitor =
      std::function<void(const MetricKey&, const util::TimeSeries&)>;

  /// `bus` names the ids this store is fed (it must outlive the store).
  explicit MetricStore(const MetricBus& bus) : bus_{bus} {}

  /// Append a sample to the id's series (created on its first sample).
  void append(MetricId id, Time t, double value);

  /// The key's series; empty when it never received a sample.
  [[nodiscard]] const util::TimeSeries& series(const std::string& site,
                                               const std::string& name) const;

  /// Visit every key holding a sample whose name matches `pattern` (see
  /// name_matches), in sorted (site, name) order, so sums over them do
  /// not depend on id order.
  void for_each(const std::string& pattern, const Visitor& visit) const;

  /// Keys holding at least one sample.
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  const MetricBus& bus_;
  core::IdMap<MetricId, util::TimeSeries> series_;
  std::vector<MetricId> ids_;  ///< keys with a sample, first-sample order
  util::TimeSeries empty_;
};

}  // namespace grid3::monitoring
