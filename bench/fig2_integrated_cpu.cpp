// Regenerates Figure 2: "Integrated CPU usage (CPU-days) during the 30
// day running for SC2003, by VO."  The 30-day window starts October 25,
// 2003.
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header("Figure 2: integrated CPU usage by VO (SC2003 30 days)",
                "Figure 2, section 6");

  auto run = bench::run_scenario(/*months=*/2);
  const auto viewer = run->viewer();
  const auto w = workload::sc2003_window();
  auto fig2 = viewer.integrated_cpu_days_by_vo(w.from, w.to);
  // Drop local (non-grid) load from the figure, as the paper's did.
  std::erase_if(fig2, [](const auto& p) { return p.first == "local"; });

  std::vector<std::pair<std::string, double>> chart{fig2.begin(), fig2.end()};
  std::cout << util::bar_chart(chart, 48, "CPU-days") << "\n";

  std::cout << "shape checks vs the paper:\n";
  auto value_of = [&](const std::string& vo) {
    for (const auto& [name, v] : fig2) {
      if (name == vo) return v;
    }
    return 0.0;
  };
  const double cms = value_of("uscms");
  const double atlas = value_of("usatlas");
  const double ivdgl = value_of("ivdgl");
  std::cout << "  USCMS leads integrated CPU (paper: CMS dominates): "
            << (cms >= atlas && cms >= ivdgl ? "YES" : "NO") << "\n"
            << "  both LHC experiments ran at production scale: "
            << (atlas > 50.0 * bench::job_scale() ? "YES" : "NO") << "\n"
            << "  paper peak-month CPU-days for scale: USCMS 1981.95, "
               "iVDGL 1244.97, USATLAS 696.48 (Table 1)\n";
  bench::scale_note();
  return 0;
}
