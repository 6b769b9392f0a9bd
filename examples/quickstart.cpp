// Quickstart: build a tiny two-site grid, bring a VO online, submit a
// two-step workflow through Chimera -> Pegasus -> DAGMan -> Condor-G ->
// GRAM, and read the accounting back out of the monitoring stack.
//
//   $ ./quickstart
#include <iostream>

#include "core/grid3.h"
#include "core/site.h"
#include "monitoring/mdviewer.h"
#include "pacman/vdt.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

int main() {
  using namespace grid3;

  // 1. A simulation clock and the grid fabric.
  sim::Simulation sim;
  core::Grid3 grid{sim, /*seed=*/2003};

  // 2. One VO with one user (an application administrator).
  grid.add_vo("demo");
  const vo::Certificate admin =
      grid.add_user("demo", "quickstart admin", vo::Role::kAppAdmin);

  // 3. Two sites: a big PBS cluster and a small Condor pool.  add_site
  //    runs the full Pacman install + certification pipeline and wires
  //    monitoring, grid-maps, and the information index.
  core::SiteConfig big;
  big.name = "BIG_PBS";
  big.owner_vo = "demo";
  big.cpus = 64;
  big.lrms = core::LrmsType::kPbs;
  big.policy.max_walltime = Time::hours(48);
  grid.add_site(big);

  core::SiteConfig small;
  small.name = "SMALL_CONDOR";
  small.owner_vo = "demo";
  small.cpus = 8;
  small.lrms = core::LrmsType::kCondor;
  grid.add_site(small);

  // 4. Install an application package on both sites; the install
  //    publishes a Grid3App attribute the planner will discover.
  pacman::add_application_package(grid.igoc().pacman_cache(), "demo-app",
                                  Time::minutes(10));
  grid.site("BIG_PBS")->install_application(grid.igoc().pacman_cache(),
                                            "demo-app");
  grid.site("SMALL_CONDOR")->install_application(grid.igoc().pacman_cache(),
                                                 "demo-app");
  grid.start_operations();
  sim.run_until(Time::minutes(10));  // let monitoring warm up

  // 5. Describe the work as virtual data: simulate -> reconstruct.
  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"simulate", "1.0", "demo-app"});
  vdc.add_transformation({"reconstruct", "1.0", "demo-app"});
  vdc.add_derivation({.id = "sim",
                      .transformation = "simulate",
                      .inputs = {},
                      .outputs = {"demo/run1.hits"},
                      .runtime = Time::hours(4),
                      .output_size = Bytes::gb(2),
                      .scratch = Bytes::gb(4)});
  vdc.add_derivation({.id = "reco",
                      .transformation = "reconstruct",
                      .inputs = {"demo/run1.hits"},
                      .outputs = {"demo/run1.esd"},
                      .runtime = Time::hours(2),
                      .output_size = Bytes::gb(1),
                      .scratch = Bytes::gb(2)});
  const auto abstract_dag = vdc.request({"demo/run1.esd"});

  // 6. Plan it onto the grid and execute under the admin's proxy.
  workflow::PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("demo")};
  workflow::PlannerConfig cfg;
  cfg.vo = "demo";
  cfg.archive_site = "BIG_PBS";
  util::Rng rng{7};
  auto plan = planner.plan(*abstract_dag, cfg, rng, sim.now());
  if (!plan) {
    std::cerr << "planning failed: no eligible site\n";
    return 1;
  }
  std::cout << "planned " << plan->nodes.size() << " nodes ("
            << plan->count(workflow::NodeType::kCompute) << " compute, "
            << plan->count(workflow::NodeType::kStageOut) << " stage-out, "
            << plan->count(workflow::NodeType::kRegister) << " register)\n";

  const auto proxy = grid.make_proxy(admin, "demo", Time::hours(48));
  bool done_ok = false;
  grid.dagman("demo").run(
      std::move(*plan), *proxy,
      [&](const workflow::DagRunStats& s) { done_ok = s.success; },
      [&](const workflow::NodeResult& r) {
        std::cout << "  node " << r.index << " ["
                  << workflow::to_string(r.type) << "] at " << r.site
                  << (r.ok ? " ok" : " FAILED") << " t+"
                  << r.finished.to_hours() << "h\n";
      });
  sim.run_until(Time::days(3));

  // 7. Read the results back from RLS and gmetad.
  std::cout << "workflow " << (done_ok ? "succeeded" : "failed") << "\n";
  for (const auto& [site, replica] :
       grid.rls("demo")->locate("demo/run1.esd", sim.now())) {
    std::cout << "output replica at " << site << ": " << replica.pfn << " ("
              << replica.size.to_gb() << " GB)\n";
  }
  const auto& beats = grid.igoc().gmetad().history().series(
      "BIG_PBS", monitoring::gmetric::kHeartbeat);
  std::cout << "BIG_PBS last ganglia heartbeat at t+"
            << (beats.empty() ? -1.0 : beats.latest().t.to_hours())
            << "h\n";
  return done_ok ? 0 : 1;
}
