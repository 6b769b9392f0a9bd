#include "monitoring/ganglia.h"

#include <optional>

namespace grid3::monitoring {
namespace {

/// Heartbeat age past which gmetad reports a site missing.
constexpr Time kStaleAfter = Time::minutes(10);

}  // namespace

void GangliaGmond::sample(Time now) {
  if (!up_) return;
  ++samples_;
  if (!ids_.heartbeat.valid()) {
    ids_ = {bus_.resolve(site_, gmetric::kCpuLoad),
            bus_.resolve(site_, gmetric::kCpusTotal),
            bus_.resolve(site_, gmetric::kCpusBusy),
            bus_.resolve(site_, gmetric::kDiskFreeGb),
            bus_.resolve(site_, gmetric::kHeartbeat)};
  }
  const HostMetrics m = source_();
  bus_.publish(ids_.cpu_load, now, m.load_one);
  bus_.publish(ids_.cpus_total, now, static_cast<double>(m.cpus_total));
  bus_.publish(ids_.cpus_busy, now, static_cast<double>(m.cpus_busy));
  bus_.publish(ids_.disk_free_gb, now, m.disk_free_gb);
  bus_.publish(ids_.heartbeat, now, 1.0);
}

GangliaGmetad::GangliaGmetad(MetricBus& bus)
    : bus_{bus},
      history_{bus},
      sub_{bus_.subscribe("*", "ganglia.*",
                          [this](MetricId id, Time t, double value) {
                            history_.append(id, t, value);
                          })} {}

GangliaGmetad::~GangliaGmetad() { bus_.unsubscribe(sub_); }

GangliaGmetad::GridSummary GangliaGmetad::summarize(Time now) const {
  GridSummary s;
  history_.for_each(gmetric::kHeartbeat, [&](const MetricKey& key,
                                             const util::TimeSeries& beat) {
    if (now - beat.latest().t > kStaleAfter) {
      s.missing_sites.push_back(key.site);
      return;
    }
    ++s.sites_reporting;
    const auto latest = [&](const char* metric) -> std::optional<double> {
      const util::TimeSeries& series = history_.series(key.site, metric);
      if (series.empty()) return std::nullopt;
      return series.latest().value;
    };
    if (auto v = latest(gmetric::kCpusTotal)) {
      s.cpus_total += static_cast<int>(*v);
    }
    if (auto v = latest(gmetric::kCpusBusy)) {
      s.cpus_busy += static_cast<int>(*v);
    }
    if (auto v = latest(gmetric::kCpuLoad)) s.load_sum += *v;
    if (auto v = latest(gmetric::kDiskFreeGb)) s.disk_free_gb += *v;
  });
  return s;
}

}  // namespace grid3::monitoring
