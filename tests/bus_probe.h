// Test helper: a MetricBus subscriber that counts the samples it is
// delivered for one (site, name) pattern while it is alive.
#pragma once

#include <cstddef>
#include <string>

#include "monitoring/bus.h"

namespace grid3::testutil {

class BusProbe {
 public:
  BusProbe(monitoring::MetricBus& bus, const std::string& site,
           const std::string& name)
      : bus_{bus},
        id_{bus.subscribe(site, name,
                          [this](monitoring::MetricId, Time,
                                 double value) {
                            ++samples_;
                            last_ = value;
                          })} {}
  ~BusProbe() { bus_.unsubscribe(id_); }
  BusProbe(const BusProbe&) = delete;
  BusProbe& operator=(const BusProbe&) = delete;

  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] double last() const { return last_; }

 private:
  monitoring::MetricBus& bus_;
  std::size_t samples_ = 0;
  double last_ = 0.0;
  monitoring::SubscriptionId id_;
};

}  // namespace grid3::testutil
