// Regenerates the section 6.2 USCMS MOP production metrics: "more than
// 14 million GEANT4 full detector simulation events ... Approximately
// 70% of CMSIM and OSCAR jobs completed successfully ... We saw few
// random job losses: more frequently a disk would fill up or a service
// would fail and all jobs submitted to a site would die."
#include <iostream>
#include <map>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header("Section 6.2: USCMS MOP production",
                "section 6.2 narrative metrics");

  auto run = bench::run_scenario(/*months=*/6);
  const auto& db = run->grid().igoc().job_db();
  const auto f = db.failures("uscms", Time::zero(), run->sim().now());
  const auto stats = db.stats_for("uscms", Time::zero(), run->sim().now());

  // Event yield: GEANT4 simulation throughput ~100 events/hour of
  // runtime at 2003 clock rates (50M-event data challenge over all
  // production; Grid3's share 14M+).
  double sim_hours = 0.0;
  for (const auto& r : db.records()) {
    if (r.vo == "uscms" && r.success) sim_hours += r.runtime().to_hours();
  }
  const double events = sim_hours * 100.0;

  util::AsciiTable table{{"metric", "paper", "measured"}};
  table.add_row({"completed jobs", "19354 (Table 1)",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(stats.jobs))});
  table.add_row({"job success rate", "~70%",
                 util::AsciiTable::percent(1.0 - f.failure_rate())});
  table.add_row({"simulated events", ">14 million",
                 util::AsciiTable::num(events / 1e6, 1) + " million"});
  table.add_row({"mean runtime", "41.85 h",
                 util::AsciiTable::num(stats.avg_runtime_hours, 2) + " h"});
  table.add_row({"max runtime", "1238.93 h",
                 util::AsciiTable::num(stats.max_runtime_hours, 2) + " h"});
  table.print(std::cout);

  // "Few random job losses ... all jobs submitted to a site would die":
  // check failure clustering by computing per-site failure shares.
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_site;
  for (const auto& r : db.records()) {
    if (r.vo != "uscms") continue;
    auto& [total, failed] = per_site[r.site];
    ++total;
    if (!r.success) ++failed;
  }
  std::cout << "\nper-site failure clustering (paper: failures come in "
               "groups from site service loss):\n";
  for (const auto& [site, counts] : per_site) {
    const double rate = counts.first > 0
                            ? static_cast<double>(counts.second) /
                                  static_cast<double>(counts.first)
                            : 0.0;
    std::cout << "  " << site << ": " << counts.second << "/" << counts.first
              << " failed (" << util::AsciiTable::percent(rate) << ")\n";
  }
  bench::scale_note();
  return 0;
}
