// SC2003 demo: run the production grid through the SuperComputing 2003
// demonstration window (Nov 15-21, 2003) and watch the iGOC's view of
// the grid -- the period when Grid3 first hit 1000+ concurrent jobs.
//
//   $ ./sc2003_demo [job_scale]     (default 0.2 for a quick run)
#include <iostream>

#include "core/metrics.h"
#include "util/calendar.h"
#include "util/table.h"
#include "workload/catalog.h"

int main(int argc, char** argv) {
  using namespace grid3;
  const double job_scale = argc > 1 ? std::atof(argv[1]) : 0.2;

  // The catalog's sc2003-demo scenario (October + November 2003) under
  // the paper's favorite-sites stack: no broker, no leases, no breakers.
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("sc2003-demo", 20031025);
  spec.job_scale = job_scale;
  workload::CatalogRun run{spec, /*quick=*/false, workload::legacy_stack()};
  run.start();

  std::cout << "Grid3 coming online (job_scale=" << job_scale << ")...\n\n";

  // Operations-room ticker: one status line per simulated day of the
  // SC2003 week, straight from the iGOC services.
  const Time sc_start = util::time_of({2003, 11, 15});
  const Time sc_end = util::time_of({2003, 11, 22});
  run.run_until(sc_start);

  auto& grid = run.grid();
  std::cout << "=== SC2003 week (Nov 15-21, 2003) iGOC ticker ===\n";
  for (Time day = sc_start; day < sc_end; day += Time::days(1)) {
    run.run_until(day + Time::days(1));
    const auto summary = grid.igoc().gmetad().summarize(run.sim().now());
    int grid_running = 0;
    std::size_t queued = 0;
    for (const auto& site : grid.sites()) {
      grid_running += site->grid_jobs_running();
      queued += site->scheduler().queued_count();
    }
    std::cout << util::month_label_at(day) << "-"
              << util::date_at(day).day << ": " << summary.sites_reporting
              << "/27 sites reporting, " << summary.cpus_busy << "/"
              << summary.cpus_total << " CPUs busy (" << grid_running
              << " grid jobs, " << queued << " queued), "
              << grid.igoc().tickets().open_count()
              << " open trouble tickets\n";
  }

  // End-of-window scorecard.
  run.run_until(util::month_start(2));
  const auto w = workload::sc2003_window();
  const auto m = core::compute_milestones(grid, w.from, w.to);
  std::cout << "\n=== SC2003 30-day milestones ===\n";
  util::AsciiTable table{{"milestone", "target", "measured", "met"}};
  for (const auto& row : m.scorecard()) {
    table.add_row({row.name, row.target, row.measured,
                   row.met ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\n(scaled run: job counts are ~" << job_scale
            << "x the paper's; run with argument 1.0 for full scale)\n";
  return 0;
}
