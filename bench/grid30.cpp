// "Grid30": the Grid2003 fabric at 10x scale -- 270 sites, ~29k CPUs,
// six VOs -- exercising the interned-id hot paths at a scale the 27-site
// reproduction never stresses.  One seeded multi-VO campaign (the
// catalog's grid30-2month entry) doubles as the throughput probe
// (simulator events/sec, accounted jobs) and emits Table-1- and
// Figure-2-shaped per-VO outputs at the 10x scale.
//
// `grid30 --snapshot PATH` additionally writes the measured numbers as a
// JSON snapshot (the committed bench/BENCH_grid30.json records them);
// the same fields are always printed on the `result-json:` line for
// scripts/check_bench.py.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "core/grid3.h"
#include "monitoring/mdviewer.h"
#include "workload/catalog.h"

namespace {

using namespace grid3;

struct CampaignResult {
  std::size_t sites = 0;
  int total_cpus = 0;    ///< fabric capacity before any node resize
  std::size_t jobs = 0;  ///< accounted job records
  double events_per_sec = 0.0;
  std::uint64_t match_cycles = 0;
  double wall_seconds = 0.0;
};

CampaignResult run_campaign() {
  // The campaign is the catalog's grid30-2month entry: the paper's full
  // job volume (scale 1.0) on the 10x fabric for two months -- heavy
  // enough to exercise tens of thousands of match cycles.  It runs
  // under queue-depth brokers with leases and without health breakers.
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("grid30-2month", bench::seed());
  spec.job_scale *= bench::job_scale();
  spec.cpu_scale = bench::cpu_scale();
  workload::StackConfig stack;
  stack.health_breakers = false;

  const auto start = std::chrono::steady_clock::now();
  workload::CatalogRun run{spec, bench::quick(), stack};
  std::cout << "[campaign] months=" << run.months()
            << " job_scale=" << run.job_scale()
            << " replicas=" << spec.roster_replicas << " ... " << std::flush;
  auto& grid = run.grid();
  CampaignResult out;
  out.sites = grid.sites().size();
  out.total_cpus = grid.total_cpus();
  run.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  sim::Simulation& sim = run.sim();

  out.wall_seconds = elapsed.count();
  out.events_per_sec =
      static_cast<double>(sim.executed()) / elapsed.count();
  out.jobs = grid.igoc().job_db().size();
  for (const std::string& vo : core::canonical_vos()) {
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      out.match_cycles += b->match_cycles();
    }
  }
  std::cout << "done (" << out.sites << " sites, " << out.total_cpus
            << " CPUs, " << sim.executed() << " events, " << out.jobs
            << " jobs, " << util::AsciiTable::num(out.wall_seconds, 1)
            << "s wall)\n";

  using util::AsciiTable;
  const auto& db = grid.igoc().job_db();
  const Time to = sim.now();
  std::cout << "\nTable 1 (shape) at 10x scale:\n";
  AsciiTable table{{"VO", "jobs", "cpu-days", "sites used", "avg hrs"}};
  for (const std::string& vo : db.vos()) {
    const auto stats = db.stats_for(vo, Time::zero(), to);
    table.add_row({vo, AsciiTable::integer(static_cast<long>(stats.jobs)),
                   AsciiTable::num(stats.total_cpu_days, 1),
                   AsciiTable::integer(static_cast<long>(stats.sites_used)),
                   AsciiTable::num(stats.avg_runtime_hours, 2)});
  }
  table.print(std::cout);

  std::cout << "\nFigure 2 (shape): integrated CPU-days by VO:\n";
  const monitoring::MdViewer viewer = run.viewer();
  for (const auto& [vo, days] :
       viewer.integrated_cpu_days_by_vo(Time::zero(), to)) {
    std::cout << "  " << vo << ": " << AsciiTable::num(days, 1) << "\n";
  }
  return out;
}

int write_snapshot(const char* path, const CampaignResult& campaign) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "grid30: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": \"grid3-bench-grid30-v3\",\n"
               "  \"sites\": %zu,\n"
               "  \"total_cpus\": %d,\n"
               "  \"jobs\": %zu,\n"
               "  \"events_per_sec\": %.0f\n"
               "}\n",
               campaign.sites, campaign.total_cpus, campaign.jobs,
               campaign.events_per_sec);
  std::fclose(out);
  std::printf("grid30 snapshot -> %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* snapshot_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[i + 1];
    }
  }
  grid3::bench::header("Grid30: the Grid2003 fabric at 10x scale",
                       "section 7 scale milestones, pushed to a 270-site "
                       "fabric");

  const CampaignResult campaign = run_campaign();

  std::cout << "\ncampaign: " << campaign.match_cycles << " match cycles, "
            << static_cast<long>(campaign.events_per_sec) << " events/s\n";
  const bool ran = campaign.jobs > 0;
  std::cout << "\nacceptance: " << campaign.sites << "-site fabric ran "
            << campaign.jobs << " jobs -> " << (ran ? "OK" : "NO JOBS")
            << '\n';

  std::printf(
      "result-json: {\"sites\": %zu, \"total_cpus\": %d, \"jobs\": %zu, "
      "\"events_per_sec\": %.0f}\n",
      campaign.sites, campaign.total_cpus, campaign.jobs,
      campaign.events_per_sec);

  if (snapshot_path != nullptr &&
      write_snapshot(snapshot_path, campaign) != 0) {
    return 1;
  }
  grid3::bench::scale_note();
  return ran ? 0 : 1;
}
