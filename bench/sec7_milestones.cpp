// Regenerates the section 7 milestones and metrics scorecard: targets,
// the paper's reported achievement, and this run's measurement.
#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"

int main() {
  using namespace grid3;
  bench::header("Section 7: milestones and metrics",
                "section 7 scorecard");

  auto run = bench::run_scenario(/*months=*/2);
  const auto w = workload::sc2003_window();
  const auto m = core::compute_milestones(run->grid(), w.from, w.to);

  util::AsciiTable table{{"milestone", "target", "paper", "measured",
                          "met"}};
  for (const auto& row : m.scorecard()) {
    table.add_row({row.name, row.target, row.paper, row.measured,
                   row.met ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\nper-VO completion efficiency (paper: varies by "
               "application; >90% on well-run sites):\n";
  for (const auto& [vo, eff] : m.efficiency_by_vo) {
    std::cout << "  " << vo << ": " << util::AsciiTable::percent(eff)
              << "\n";
  }
  std::cout << "\ntrouble tickets during window: "
            << run->grid().igoc().tickets().total() << " opened, mean "
               "resolution "
            << util::AsciiTable::num(
                   run->grid().igoc().tickets().mean_resolution().to_hours(),
                   1)
            << " h\n";
  bench::scale_note();
  return 0;
}
