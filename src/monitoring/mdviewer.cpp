#include "monitoring/mdviewer.h"

#include <algorithm>
#include <cmath>

namespace grid3::monitoring {
namespace {

/// Overlap of [a1, a2) with [b1, b2).
Time overlap(Time a1, Time a2, Time b1, Time b2) {
  const Time lo = std::max(a1, b1);
  const Time hi = std::min(a2, b2);
  return hi > lo ? hi - lo : Time::zero();
}

}  // namespace

std::vector<std::pair<std::string, double>>
MdViewer::integrated_cpu_days_by_vo(Time from, Time to) const {
  std::map<std::string, double> acc;
  for (const JobRecord& r : jobs_.records()) {
    if (!r.success && r.runtime() <= Time::zero()) continue;
    const Time used = overlap(r.started, r.finished, from, to);
    if (used > Time::zero()) acc[r.vo] += used.to_days();
  }
  std::vector<std::pair<std::string, double>> out{acc.begin(), acc.end()};
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

std::map<std::string, std::vector<double>> MdViewer::differential_cpu_by_vo(
    Time from, Time to, std::size_t bins) const {
  // Build a per-VO concurrency step series from job start/finish events,
  // then bin-average it (reproducing the paper's note that binned
  // averages under-report instantaneous peaks).
  std::map<std::string, std::vector<std::pair<Time, int>>> deltas;
  for (const JobRecord& r : jobs_.records()) {
    if (r.finished <= r.started) continue;
    deltas[r.vo].push_back({r.started, +1});
    deltas[r.vo].push_back({r.finished, -1});
  }
  std::map<std::string, std::vector<double>> out;
  for (auto& [vo, d] : deltas) {
    std::sort(d.begin(), d.end());
    util::TimeSeries series;
    int level = 0;
    for (const auto& [t, delta] : d) {
      level += delta;
      series.append(t, static_cast<double>(level));
    }
    out[vo] = series.binned_average(from, to, bins);
  }
  return out;
}

std::vector<std::pair<std::string, double>> MdViewer::cpu_days_by_site(
    const std::string& vo, Time from, Time to) const {
  std::map<std::string, double> acc;
  for (const JobRecord& r : jobs_.records()) {
    if (r.vo != vo) continue;
    const Time used = overlap(r.started, r.finished, from, to);
    if (used > Time::zero()) acc[r.site] += used.to_days();
  }
  std::vector<std::pair<std::string, double>> out{acc.begin(), acc.end()};
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

util::TimeSeries MdViewer::concurrency(Time from, Time to) const {
  std::vector<std::pair<Time, int>> deltas;
  for (const JobRecord& r : jobs_.records()) {
    if (r.finished <= r.started) continue;
    if (r.finished < from || r.started > to) continue;
    deltas.push_back({r.started, +1});
    deltas.push_back({r.finished, -1});
  }
  std::sort(deltas.begin(), deltas.end());
  util::TimeSeries series;
  int level = 0;
  for (const auto& [t, delta] : deltas) {
    level += delta;
    if (t >= from && t <= to) {
      series.append(t, static_cast<double>(level));
    }
  }
  return series;
}

double MdViewer::peak_concurrent_jobs(Time from, Time to) const {
  return concurrency(from, to).max_over(from, to);
}

double MdViewer::utilization_from_ganglia(Time from, Time to) const {
  double busy = 0.0;
  double total = 0.0;
  const MetricStore& history = gmetad_.history();
  history.for_each(gmetric::kCpusTotal, [&](const MetricKey& key,
                                            const util::TimeSeries& cpus) {
    busy += history.series(key.site, gmetric::kCpusBusy)
                .time_average(from, to);
    total += cpus.time_average(from, to);
  });
  return total > 0.0 ? busy / total : 0.0;
}

MdViewer::LatencyBreakdown MdViewer::latency_breakdown(const std::string& vo,
                                                       Time from,
                                                       Time to) const {
  LatencyBreakdown out;
  double wait = 0.0;
  double run = 0.0;
  for (const JobRecord& r : jobs_.records()) {
    if (!r.success || r.vo != vo) continue;
    if (r.finished < from || r.finished >= to) continue;
    ++out.jobs;
    wait += (r.started - r.submitted).to_hours();
    run += (r.finished - r.started).to_hours();
  }
  if (out.jobs > 0) {
    out.avg_wait_hours = wait / static_cast<double>(out.jobs);
    out.avg_run_hours = run / static_cast<double>(out.jobs);
  }
  return out;
}

double MdViewer::crosscheck_divergence(Time from, Time to) const {
  // MonALISA path: sum every per-site per-VO running-jobs gauge.
  const double monalisa = repository_.average_total(
      vo_metric(mlmetric::kVoJobsRunning, "*"), from, to);
  const double acdc_avg = concurrency(from, to).time_average(from, to);
  const double denom = std::max(monalisa, acdc_avg);
  if (denom <= 0.0) return 0.0;
  return std::abs(monalisa - acdc_avg) / denom;
}

}  // namespace grid3::monitoring
