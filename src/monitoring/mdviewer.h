// MDViewer: the Metrics Data Viewer (paper section 5.2, ref [58]).
//
// "provides an API for manipulating, comparing and viewing information
// and a set of predefined plots, parametric in arbitrary time intervals,
// sites and VOs, tailored to Grid2003 needs."  Each predefined plot here
// is one of the paper's figures; the bench harnesses call these and
// print the series.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "monitoring/acdc.h"
#include "monitoring/ganglia.h"
#include "monitoring/monalisa.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace grid3::monitoring {

class MdViewer {
 public:
  MdViewer(const JobDatabase& jobs, const GangliaGmetad& gmetad,
           const MonalisaRepository& repository)
      : jobs_{jobs}, gmetad_{gmetad}, repository_{repository} {}

  /// Figure 2: integrated CPU usage (CPU-days) by VO over a window.  A
  /// job contributes the overlap of its run interval with the window.
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  integrated_cpu_days_by_vo(Time from, Time to) const;

  /// Figure 3: differential CPU usage (time-averaged CPUs in use) by VO,
  /// binned.  Returns vo -> per-bin averages.
  [[nodiscard]] std::map<std::string, std::vector<double>>
  differential_cpu_by_vo(Time from, Time to, std::size_t bins) const;

  /// Figure 4: CPU-days by site for one VO over a window (the CMS
  /// cumulative-usage-by-site distribution).
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  cpu_days_by_site(const std::string& vo, Time from, Time to) const;

  /// Figure 6: completed jobs per month since the epoch.
  [[nodiscard]] std::vector<std::size_t> jobs_by_month(int months) const {
    return jobs_.jobs_by_month(months);
  }

  /// Concurrency series derived from job records: number of jobs running
  /// at each change point (peak-concurrent-jobs milestone).
  [[nodiscard]] util::TimeSeries concurrency(Time from, Time to) const;
  [[nodiscard]] double peak_concurrent_jobs(Time from, Time to) const;

  /// Resource utilization from the Ganglia path: time-averaged busy/total
  /// CPU fraction across sites over a window.
  [[nodiscard]] double utilization_from_ganglia(Time from, Time to) const;

  /// End-to-end latency analysis (section 8's efficiency lesson:
  /// "Understanding why will require increased analysis of end-to-end
  /// applications").  Splits each completed job into queue/staging wait
  /// (submitted -> started) and execution (started -> finished).
  struct LatencyBreakdown {
    std::size_t jobs = 0;
    double avg_wait_hours = 0.0;
    double avg_run_hours = 0.0;
    /// Fraction of end-to-end time spent computing.
    [[nodiscard]] double compute_efficiency() const {
      const double total = avg_wait_hours + avg_run_hours;
      return total > 0.0 ? avg_run_hours / total : 0.0;
    }
  };
  [[nodiscard]] LatencyBreakdown latency_breakdown(const std::string& vo,
                                                   Time from, Time to) const;

  /// Redundant-path crosscheck (section 5.2): relative divergence between
  /// the ACDC-derived average grid-job concurrency and the MonALISA
  /// VO-activity path (sum of the per-site per-VO running-job gauges the
  /// repository collected).  Values near 0 mean the paths agree; a
  /// broken collection path, the repository's own outages included,
  /// shows up as divergence.
  [[nodiscard]] double crosscheck_divergence(Time from, Time to) const;

 private:
  const JobDatabase& jobs_;
  const GangliaGmetad& gmetad_;
  const MonalisaRepository& repository_;
};

}  // namespace grid3::monitoring
