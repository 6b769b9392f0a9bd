// Ablation B: the section 5.2 claim that monitoring redundancy "has the
// advantage of permitting crosschecks on the data collected."
//
// The same ground truth (running jobs) flows through two independent
// paths: the MonALISA agents' per-VO running-job gauges, collected by
// the central repository, and ACDC job records.  We stop the whole
// monitor loop (gmond, GRIS dynamic attributes and MonALISA agents) at a
// fraction of sites and show the crosscheck divergence detects the loss,
// while either single path alone would report a self-consistent but
// wrong grid view.
#include <iostream>

#include "bench_common.h"
#include "monitoring/monalisa.h"
#include "workload/catalog.h"

int main() {
  using namespace grid3;
  bench::header("Ablation B: monitoring redundancy crosscheck",
                "section 5.2: redundant collection paths");

  // Ground truth comes from the catalog's calib-month scenario (small
  // LIGO + SDSS campaign batches), run with health breakers off so the
  // killed monitors are not quarantined away -- the crosscheck, not the
  // breaker, must be what notices the loss.
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("calib-month", bench::seed());
  spec.job_scale *= bench::job_scale();
  spec.cpu_scale = bench::cpu_scale();
  workload::StackConfig stack;
  stack.health_breakers = false;

  util::AsciiTable table{{"site monitors killed", "ACDC avg running",
                          "MonALISA avg running", "crosscheck divergence"}};
  for (const double kill_fraction : {0.0, 0.25, 0.5, 1.0}) {
    workload::CatalogRun run{spec, bench::quick(), stack};
    // Let the grid warm up, then stop the monitor loop at a fraction of
    // sites, exactly like a wedged host daemon.
    run.run_until(Time::days(3));
    auto& sites = run.grid().sites();
    const auto kill_count =
        static_cast<std::size_t>(kill_fraction * sites.size());
    for (std::size_t i = 0; i < kill_count; ++i) {
      sites[i]->stop_services();
    }
    run.run();

    const auto viewer = run.viewer();
    const Time from = Time::days(4);
    const Time to = run.sim().now();
    const double acdc = viewer.concurrency(from, to).time_average(from, to);
    const double monalisa =
        run.grid().igoc().ml_repository().average_total(
            monitoring::vo_metric(monitoring::mlmetric::kVoJobsRunning, "*"),
            from, to);
    table.add_row({util::AsciiTable::percent(kill_fraction, 0),
                   util::AsciiTable::num(acdc, 1),
                   util::AsciiTable::num(monalisa, 1),
                   util::AsciiTable::num(
                       viewer.crosscheck_divergence(from, to), 3)});
  }
  table.print(std::cout);
  std::cout << "\nreading: with all paths healthy the two estimates track "
               "(divergence stays within sampling tolerance).  As site "
               "monitors die the MonALISA view goes wrong without any "
               "error: a dead site's gauges freeze at their last values, "
               "so the view under- or over-counts by however far the load "
               "has moved since they froze -- only the crosscheck against "
               "the redundant ACDC path exposes it, which is why Grid3 "
               "kept both.\n";
  return 0;
}
