// Regenerates Figure 4: "CMS cumulative use of Grid2003.  The chart
// plots the distribution of usage (in CPU-days) by site in Grid2003
// over a 150 day period beginning in November 2003."
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header("Figure 4: CMS cumulative CPU-days by site (150 days)",
                "Figure 4, section 6.2");

  auto run = bench::run_scenario(/*months=*/6);
  const auto viewer = run->viewer();
  const auto w = workload::cms150_window();
  const auto by_site = viewer.cpu_days_by_site("uscms", w.from, w.to);

  std::cout << util::bar_chart(by_site, 48, "CPU-days") << "\n";

  double total = 0.0;
  for (const auto& [site, days] : by_site) total += days;
  std::cout << "sites used by CMS: " << by_site.size()
            << " (paper: production on 11 sites, Table 1 lists 18 used)\n";
  if (!by_site.empty()) {
    std::cout << "largest single site share: "
              << util::AsciiTable::percent(by_site.front().second /
                                           std::max(total, 1e-9))
              << " at " << by_site.front().first
              << " (paper: FNAL Tier1 dominates; Table 1 peak-month single-"
                 "resource share 48.4%)\n";
  }
  // Long OSCAR jobs gate on queue walltime limits: confirm the long-queue
  // sites carry a disproportionate share (section 6.2).
  double long_site_days = 0.0;
  for (const auto& [site, days] : by_site) {
    if (site == "FNAL_CMS" || site == "CIT_PG" || site == "UFL_PG") {
      long_site_days += days;
    }
  }
  std::cout << "share at the three long-walltime queues: "
            << util::AsciiTable::percent(long_site_days /
                                         std::max(total, 1e-9))
            << " (paper: not all sites could accommodate 30h+ OSCAR jobs)\n";
  bench::scale_note();
  return 0;
}
