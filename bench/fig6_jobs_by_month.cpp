// Regenerates Figure 6: "Distribution of the number of jobs run on
// Grid3 by month starting from October 2003" -- the ramp-up through late
// 2003 and the sustained production plateau into 2004 that the paper
// reads as evidence a persistent grid raises total output.
#include <iostream>

#include "bench_common.h"

#include "util/calendar.h"

int main() {
  using namespace grid3;
  bench::header("Figure 6: jobs run on Grid3 by month",
                "Figure 6, section 6.4");

  constexpr int kMonths = 7;  // Oct 2003 .. Apr 2004
  auto run = bench::run_scenario(kMonths);
  const auto jobs = run->viewer().jobs_by_month(kMonths);
  const auto labels = util::month_labels(kMonths);

  std::vector<std::pair<std::string, double>> chart;
  for (int m = 0; m < kMonths; ++m) {
    chart.emplace_back(labels[static_cast<std::size_t>(m)],
                       static_cast<double>(jobs[static_cast<std::size_t>(m)]));
  }
  std::cout << util::bar_chart(chart, 48, "jobs") << "\n";

  // Shape checks: ramp in 2003, sustained (non-collapsing) 2004.
  const auto oct = static_cast<double>(jobs[0]);
  const auto nov = static_cast<double>(jobs[1]);
  double sustained_2004 = 0.0;
  for (int m = 3; m < kMonths; ++m) {
    sustained_2004 += static_cast<double>(jobs[static_cast<std::size_t>(m)]);
  }
  sustained_2004 /= (kMonths - 3);
  std::cout << "ramp into SC2003 (Nov >> Oct): "
            << (nov > 2.0 * oct ? "YES" : "NO") << "\n"
            << "sustained 2004 production (avg "
            << util::AsciiTable::num(sustained_2004, 0)
            << " jobs/month > Oct ramp-up): "
            << (sustained_2004 > oct ? "YES" : "NO")
            << "  (paper: \"a more sustained production rate appears in "
               "2004\")\n";
  bench::scale_note();
  return 0;
}
