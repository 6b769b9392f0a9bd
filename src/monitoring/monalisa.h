// MonALISA: agent-based monitoring (paper section 5.2).
//
// Site agents watch local sources (the batch queue, the gatekeeper) and
// stream VO-tagged activity to the central repository at the iGOC,
// which keeps the step series of every key it receives and
// serves the current 5-minute average, the finest view of the paper's
// "round robin-like database".  The repository path is deliberately
// *redundant* with the Ganglia/ACDC paths -- "permitting crosschecks on
// the data collected".
#pragma once

#include <optional>
#include <string>

#include "core/ids.h"
#include "monitoring/bus.h"
#include "monitoring/metric_store.h"
#include "util/units.h"

namespace grid3::monitoring {

/// Metric names MonALISA agents derive at sites: one running-jobs gauge
/// per supported VO (read by MdViewer's crosscheck) and the gatekeeper
/// load (read by the broker's ranking).
namespace mlmetric {
inline constexpr const char* kVoJobsRunning = "monalisa.vo_jobs_running";
inline constexpr const char* kGatekeeperLoad = "monalisa.gatekeeper_load";
}  // namespace mlmetric

/// Compose a per-VO metric key name, e.g. "monalisa.vo_jobs_running.usatlas".
[[nodiscard]] std::string vo_metric(const char* base, const std::string& vo);

/// Site-resident agent: re-publishes selected local metrics onto the bus
/// under MonALISA names and forwards them to the central repository.
class MonalisaAgent {
 public:
  MonalisaAgent(std::string site, MetricBus& bus)
      : site_{std::move(site)}, bus_{bus} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  /// Id of one of this site's metrics, for the id-taking report().
  [[nodiscard]] MetricId resolve(const std::string& metric) {
    return bus_.resolve(site_, metric);
  }

  /// Report one observation (called by the site model's sampling loop).
  void report(MetricId metric, Time now, double value);
  /// Resolve-then-report.
  void report(const std::string& metric, Time now, double value);

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  [[nodiscard]] std::uint64_t reports() const { return reports_; }

 private:
  std::string site_;
  MetricBus& bus_;
  bool up_ = true;
  std::uint64_t reports_ = 0;
};

/// Central repository: subscribes to MonALISA metrics on the bus, keeps
/// the step series of every key it ingests, and keeps a running average
/// of each key's latest 5-minute slot.
class MonalisaRepository {
 public:
  explicit MonalisaRepository(MetricBus& bus);
  ~MonalisaRepository();
  MonalisaRepository(const MonalisaRepository&) = delete;
  MonalisaRepository& operator=(const MonalisaRepository&) = delete;

  /// Id of a site's metric, for read(); invalid until the key is first
  /// resolved on the bus (a site agent resolves its keys on its first
  /// sweep).
  [[nodiscard]] MetricId find(const std::string& site,
                              const std::string& metric) const {
    return bus_.find(site, metric);
  }

  /// Average of the key's samples in the 5-minute slot holding t.  Only
  /// the key's latest slot with samples is kept: nullopt when t falls in
  /// any other slot (a past one, or one with no samples yet), or when
  /// `metric` is invalid.
  [[nodiscard]] std::optional<double> read(MetricId metric, Time t) const;

  /// Sum over the keys whose name matches `pattern` (see name_matches)
  /// of each series' time average over [from, to].
  [[nodiscard]] double average_total(const std::string& pattern, Time from,
                                     Time to) const;

  [[nodiscard]] std::size_t archived_keys() const { return history_.size(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

  /// Collector outage: a down repository answers no reads and drops
  /// incoming updates (the gap stays in the series -- history lost
  /// while down is not back-filled on recovery).  Consumers already
  /// treat "no value" as a degraded default (the broker ranks
  /// load-blind via value_or(0)).
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  /// Updates dropped while the collector was down.
  [[nodiscard]] std::uint64_t dropped_updates() const { return dropped_; }

 private:
  /// Running average of the samples in a key's latest slot, in arrival
  /// order; a second sample at the same instant replaces the first.
  struct SlotAverage {
    Time slot;  ///< start of the slot
    Time last;  ///< instant of the latest sample
    double average = 0.0;
    double count = 0.0;  ///< 0 = no sample yet
    /// The average and count before the latest sample.
    double prior_average = 0.0;
    double prior_count = 0.0;

    void add(Time t, double value);
    [[nodiscard]] std::optional<double> at(Time t) const;
  };

  void ingest(MetricId id, Time t, double value);

  MetricBus& bus_;
  bool up_ = true;
  MetricStore history_;
  core::IdMap<MetricId, SlotAverage> slots_;
  SubscriptionId sub_;
  std::uint64_t updates_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace grid3::monitoring
