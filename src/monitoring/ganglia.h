// Ganglia-style cluster monitoring (paper section 5.2): a gmond daemon
// per site samples host-level metrics and publishes them; a gmetad
// aggregator at the iGOC serves grid-wide summary views with
// hierarchical grid views.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "monitoring/bus.h"
#include "monitoring/metric_store.h"
#include "util/units.h"

namespace grid3::monitoring {

/// Canonical Ganglia metric names used across the simulator.
namespace gmetric {
inline constexpr const char* kCpuLoad = "ganglia.load_one";
inline constexpr const char* kCpusTotal = "ganglia.cpu_num";
inline constexpr const char* kCpusBusy = "ganglia.cpu_busy";
inline constexpr const char* kDiskFreeGb = "ganglia.disk_free";
inline constexpr const char* kHeartbeat = "ganglia.heartbeat";
}  // namespace gmetric

/// Snapshot a site feeds its gmond each sampling round; the glue between
/// the physical site model and the monitoring fabric.
struct HostMetrics {
  double load_one = 0.0;
  int cpus_total = 0;
  int cpus_busy = 0;
  double disk_free_gb = 0.0;
};

using MetricsSource = std::function<HostMetrics()>;

/// Per-site collector daemon.  Resolves its metric keys on its first
/// sampling round, not at construction, so building a site interns
/// nothing; every round publishes by id.
class GangliaGmond {
 public:
  GangliaGmond(std::string site, MetricBus& bus, MetricsSource source)
      : site_{std::move(site)}, bus_{bus}, source_{std::move(source)} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  /// One sampling round: read the source, publish all metrics.  Driven by
  /// a PeriodicProcess in the site model.  No-op while down.
  void sample(Time now);

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  std::string site_;
  MetricBus& bus_;
  MetricsSource source_;
  /// This site's gmetric keys; invalid until the first round.
  struct Ids {
    MetricId cpu_load, cpus_total, cpus_busy, disk_free_gb, heartbeat;
  } ids_;
  bool up_ = true;
  std::uint64_t samples_ = 0;
};

/// iGOC-side aggregator: subscribes to every ganglia.* sample published
/// from its construction on and keeps each (site, metric) step series.
/// A site whose heartbeat is more than 10 minutes old is excluded from
/// summaries (and reported missing), matching gmetad's behaviour when a
/// gmond dies.
class GangliaGmetad {
 public:
  explicit GangliaGmetad(MetricBus& bus);
  ~GangliaGmetad();
  GangliaGmetad(const GangliaGmetad&) = delete;
  GangliaGmetad& operator=(const GangliaGmetad&) = delete;

  struct GridSummary {
    int sites_reporting = 0;
    int cpus_total = 0;
    int cpus_busy = 0;
    double load_sum = 0.0;
    double disk_free_gb = 0.0;
    std::vector<std::string> missing_sites;
  };

  [[nodiscard]] GridSummary summarize(Time now) const;

  /// Every ganglia.* series collected so far.
  [[nodiscard]] const MetricStore& history() const { return history_; }

 private:
  MetricBus& bus_;
  MetricStore history_;
  SubscriptionId sub_;
};

}  // namespace grid3::monitoring
