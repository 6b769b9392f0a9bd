// Site administrator tour: what bringing a new site onto Grid3 looked
// like (section 5.1) -- Pacman install from the iGOC cache, validation
// and certification, grid-map generation from the VOMS servers, GIIS
// registration, first probes from the Site Status Catalog, and the
// first user job arriving.
//
//   $ ./site_admin_tour
#include <iostream>

#include "core/grid3.h"
#include "core/site.h"
#include "mds/schema.h"
#include "pacman/vdt.h"

int main() {
  using namespace grid3;
  sim::Simulation sim;
  core::Grid3 grid{sim, 404};

  // The grid already has its VO layer.
  for (const auto& vo_name : core::canonical_vos()) grid.add_vo(vo_name);
  const auto alice = grid.add_user("usatlas", "alice");

  std::cout << "== 1. Pacman installation from the iGOC cache ==\n";
  const auto* vdt = grid.igoc().pacman_cache().find("grid3-vdt");
  std::cout << "installing " << vdt->name << " " << vdt->version
            << " (dependency closure of "
            << grid.igoc().pacman_cache().resolve("grid3-vdt")->size()
            << " packages)\n";

  core::SiteConfig cfg;
  cfg.name = "NEWSITE";
  cfg.location = "Example U.";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 32;
  cfg.lrms = core::LrmsType::kPbs;
  core::Site& site = grid.add_site(cfg, /*reliability=*/5.0);

  const auto& report = site.install_report();
  std::cout << "installed " << report.installed.size() << " packages in "
            << report.elapsed.to_minutes() << " minutes, "
            << report.reinstalls << " reinstalls after validation hits, "
            << report.caught_defects.size() << " defects caught, "
            << report.latent_defects.size() << " latent\n";

  std::cout << "\n== 2. Information publication (GLUE + Grid3 schema) ==\n";
  const auto snap = grid.igoc().top_giis().lookup("NEWSITE", sim.now());
  for (const auto* key :
       {&mds::glue::kTotalCpus, &mds::glue::kLrmsType,
        &mds::glue::kMaxWallClockMinutes}) {
    std::cout << "  " << *key << " = "
              << snap->get_string(*key).value_or("?") << "\n";
  }
  std::cout << "  " << mds::grid3ext::kAppDir << " = "
            << snap->get_string(mds::grid3ext::kAppDir).value_or("?")
            << "\n";

  std::cout << "\n== 3. Grid-map generation from the VOMS servers ==\n";
  std::cout << "grid-map entries: " << site.gridmap().map(alice.subject_dn)
                                           .has_value()
            << " (alice -> "
            << site.gridmap().map(alice.subject_dn)->unix_name << ")\n";

  std::cout << "\n== 4. Site Status Catalog verification ==\n";
  grid.start_operations();
  sim.run_until(Time::hours(1));
  const auto* entry = grid.igoc().site_catalog().entry("NEWSITE");
  std::cout << "catalog status: " << monitoring::to_string(entry->status)
            << " (probes:";
  for (const auto& probe : entry->last_results) {
    std::cout << " " << probe.probe << "=" << (probe.pass ? "ok" : "FAIL");
  }
  std::cout << ")\n";

  std::cout << "\n== 5. First grid job arrives ==\n";
  const auto proxy = grid.make_proxy(alice, "usatlas");
  gram::GramJob job;
  job.proxy = *proxy;
  job.request.vo = "usatlas";
  job.request.actual_runtime = Time::hours(2);
  job.request.requested_walltime = Time::hours(3);
  job.scratch = Bytes::gb(1);
  bool ok = false;
  // A patient Condor-G: retry transient jobmanager flakes, as production
  // submit hosts were configured to.
  gram::CondorG condor_g{
      sim, {.retry = {.base = Time::minutes(5), .max_retries = 5}}};
  condor_g.submit_to(site.gatekeeper(), std::move(job),
                     [&](const gram::GramResult& r) { ok = r.ok(); });
  sim.run_until(sim.now() + Time::days(1));
  std::cout << "job " << (ok ? "completed" : "failed") << "; site usage: "
            << site.scheduler().vo_usage("usatlas").to_hours()
            << " CPU-hours charged to usatlas\n";

  std::cout << "\nNEWSITE is in production. (Sites that failed "
               "certification would repeat step 1 -- see DESIGN.md.)\n";
  return ok ? 0 : 1;
}
