// Regenerates Figure 3: "Differential CPU usage (measured in
// time-averaged number of CPUs used) during the 30 day running period
// for SC2003, organized by VO."  Also checks the paper's April-2004
// claim of ~700 CPUs in daily use by the experiments.
#include <iomanip>
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header(
      "Figure 3: differential CPU usage by VO (SC2003, daily bins)",
      "Figure 3, section 6");

  auto run = bench::run_scenario(/*months=*/2);
  const auto viewer = run->viewer();
  const auto w = workload::sc2003_window();
  constexpr std::size_t kBins = 30;  // daily bins over the 30-day window
  auto by_vo = viewer.differential_cpu_by_vo(w.from, w.to, kBins);
  by_vo.erase("local");  // the paper's figure shows grid usage only

  // Print the stacked series: one row per day, one column per VO.
  std::cout << "day |";
  for (const auto& [vo, series] : by_vo) {
    std::cout << std::setw(10) << vo;
  }
  std::cout << std::setw(10) << "total" << "\n";
  double peak_total = 0.0;
  for (std::size_t d = 0; d < kBins; ++d) {
    std::cout << std::setw(3) << d + 1 << " |";
    double total = 0.0;
    for (const auto& [vo, series] : by_vo) {
      std::cout << std::setw(10) << util::AsciiTable::num(series[d], 1);
      total += series[d];
    }
    peak_total = std::max(peak_total, total);
    std::cout << std::setw(10) << util::AsciiTable::num(total, 1) << "\n";
  }
  std::cout << "\npeak daily-binned CPUs in use: "
            << util::AsciiTable::num(peak_total, 0)
            << "  (paper: binned averages under-report the instantaneous "
               "1300-job peak)\n";
  const double instantaneous = viewer.peak_concurrent_jobs(w.from, w.to);
  std::cout << "instantaneous peak concurrent jobs: "
            << util::AsciiTable::num(instantaneous, 0)
            << "  (paper: 1300 on 11/20/03; binned < instantaneous: "
            << (peak_total < instantaneous ? "YES" : "NO") << ")\n";
  bench::scale_note();
  return 0;
}
