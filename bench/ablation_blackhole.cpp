// Ablation G: site-health circuit breakers vs unguarded matchmaking
// against a black-hole site (section 6.1: "more frequently a disk would
// fill up or a service would fail and all jobs submitted to a site would
// die"; section 6.2's ATLAS postmortem counts ~90% of failures as site
// problems).  A black hole fast-fails everything sent to it, so its
// queue always looks empty and load-aware ranking funnels the whole
// workload in.  One binary replays the same job stream twice -- without
// breakers (the status quo: operators notice eventually) and with the
// health monitor quarantining the site, probing it, and re-admitting it
// after repair.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "health/health.h"
#include "pacman/vdt.h"

namespace {

using namespace grid3;

// Fast enough (sub-second) that quick mode runs the full waves: the 5x
// drop criterion needs the full wave to amortize the fixed detection
// cost (the breaker's min-sample gate) that every run pays.
constexpr int kWave1Jobs = 240;        // submitted while the hole is open
constexpr int kWave2Jobs = 60;         // submitted after the repair
const Time kJobRuntime = Time::minutes(20);
const Time kRepairAt = Time::hours(12);
const Time kWave2At = Time::hours(24);
const Time kRunUntil = Time::hours(36);

struct Outcome {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t bh_submissions = 0;      // gatekeeper-level, at the hole
  std::uint64_t bh_failed = 0;           // failed submissions at the hole
  std::uint64_t total_submissions = 0;   // across all gatekeepers
  std::uint64_t trips = 0, probes = 0, readmissions = 0;
  double first_trip_hours = -1.0;
  std::uint64_t bh_completed_after_repair = 0;
};

Outcome run_mode(bool breakers) {
  sim::Simulation sim;
  core::Grid3 grid{sim, bench::seed()};
  std::cout << "[mode " << (breakers ? "breakers" : "no breakers")
            << "] running ... " << std::flush;
  grid.add_vo("usatlas");
  pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                  Time::minutes(5));
  // The black hole is the biggest site on the grid: queue-depth ranking
  // loves its permanently empty queue.
  std::vector<std::pair<std::string, int>> sites{
      {"blackhole", 96}, {"good_a", 24}, {"good_b", 24}, {"good_c", 24}};
  for (const auto& [name, cpus] : sites) {
    core::SiteConfig c;
    c.name = name;
    c.owner_vo = "usatlas";
    c.cpus = cpus;
    c.policy.max_walltime = Time::hours(48);
    c.policy.dedicated = true;
    grid.add_site(c, /*reliability=*/1000.0);
    grid.site(name)->install_application(grid.igoc().pacman_cache(), "app");
    grid.site(name)->gatekeeper().set_submission_flake_rate(0.0);
    grid.site(name)->gatekeeper().set_environment_error_rate(0.0);
  }
  const vo::Certificate cert =
      grid.add_user("usatlas", "producer", vo::Role::kAppAdmin);
  const vo::VomsProxy proxy =
      *grid.make_proxy(cert, "usatlas", Time::hours(800));
  const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
  for (const auto& [name, cpus] : sites) {
    grid.site(name)->refresh_gridmap(servers);
  }
  grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth);
  if (breakers) grid.attach_health();
  grid.start_operations();
  sim.run_until(Time::minutes(6));

  // The environment at the big site is broken from the start: every job
  // it accepts runs, then dies to a misconfigured worker environment.
  grid.site("blackhole")->gatekeeper().set_environment_error_rate(1.0);
  sim.schedule_in(kRepairAt - sim.now(), [&] {
    grid.site("blackhole")->gatekeeper().set_environment_error_rate(0.0);
  });

  Outcome out;
  std::uint64_t bh_completed_at_repair = 0;
  sim.schedule_in(kRepairAt - sim.now(), [&] {
    bh_completed_at_repair =
        grid.site("blackhole")->gatekeeper().completions();
  });

  auto submit = [&] {
    broker::JobSpec spec;
    spec.vo = "usatlas";
    spec.app = "app";
    spec.required_app = "app";
    spec.runtime = kJobRuntime;
    gram::GramJob job;
    job.proxy = proxy;
    job.request.vo = "usatlas";
    job.request.requested_walltime = kJobRuntime + Time::hours(1);
    job.request.actual_runtime = kJobRuntime;
    grid.broker("usatlas")->submit(
        spec, std::move(job), [&](const broker::BrokeredResult& r) {
          (r.ok() ? out.completed : out.failed) += 1;
        });
  };
  // Wave 1: one job every 2 minutes while the hole is open.
  for (int i = 0; i < kWave1Jobs; ++i) {
    sim.schedule_in(Time::minutes(2) * i, submit);
  }
  // Wave 2: the same stream after repair -- a re-admitted site should
  // carry production again.
  for (int i = 0; i < kWave2Jobs; ++i) {
    sim.schedule_in(kWave2At - sim.now() + Time::minutes(2) * i, submit);
  }
  sim.run_until(kRunUntil);

  const gram::Gatekeeper& bh = grid.site("blackhole")->gatekeeper();
  out.bh_submissions = bh.submissions();
  out.bh_failed = bh.failures();
  for (const auto& [name, cpus] : sites) {
    out.total_submissions += grid.site(name)->gatekeeper().submissions();
  }
  out.bh_completed_after_repair = bh.completions() - bh_completed_at_repair;
  if (const health::SiteHealthMonitor* mon = grid.health()) {
    out.trips = mon->trips();
    out.probes = mon->probes();
    out.readmissions = mon->readmissions();
    for (const auto& e : mon->events()) {
      if (e.event == "trip") {
        out.first_trip_hours = e.at.to_hours();
        break;
      }
    }
  }
  std::cout << "done (" << sim.executed() << " events, " << out.completed
            << "/" << (kWave1Jobs + kWave2Jobs) << " jobs)\n";
  return out;
}

}  // namespace

int main() {
  using grid3::util::AsciiTable;
  grid3::bench::header(
      "Ablation G: site-health circuit breakers vs a black-hole site",
      "sections 6.1 + 6.2: site problems killing all jobs sent to a site");

  const Outcome base = run_mode(/*breakers=*/false);
  const Outcome guarded = run_mode(/*breakers=*/true);

  AsciiTable table{{"breakers", "completed", "failed", "bh submissions",
                    "bh failed", "trips", "probes", "readmits",
                    "first trip (h)", "bh jobs post-repair"}};
  const auto row = [&](const std::string& label, const Outcome& o) {
    table.add_row(
        {label, AsciiTable::integer(static_cast<long>(o.completed)),
         AsciiTable::integer(static_cast<long>(o.failed)),
         AsciiTable::integer(static_cast<long>(o.bh_submissions)),
         AsciiTable::integer(static_cast<long>(o.bh_failed)),
         AsciiTable::integer(static_cast<long>(o.trips)),
         AsciiTable::integer(static_cast<long>(o.probes)),
         AsciiTable::integer(static_cast<long>(o.readmissions)),
         o.first_trip_hours < 0.0
             ? std::string{"-"}
             : AsciiTable::num(o.first_trip_hours, 2),
         AsciiTable::integer(
             static_cast<long>(o.bh_completed_after_repair))});
  };
  row("off (status quo)", base);
  row("on (quarantine + probe)", guarded);
  std::cout << '\n';
  table.print(std::cout);

  const bool no_worse = guarded.completed >= base.completed;
  const double drop =
      guarded.bh_failed > 0
          ? static_cast<double>(base.bh_failed) /
                static_cast<double>(guarded.bh_failed)
          : static_cast<double>(base.bh_failed);
  const bool big_drop = drop >= 5.0;
  const bool tripped = guarded.trips >= 1 && guarded.first_trip_hours >= 0.0;
  const bool readmitted = guarded.readmissions >= 1;
  std::cout << "\nacceptance: completions " << guarded.completed << " vs "
            << base.completed << " -> "
            << (no_worse ? "NO WORSE" : "WORSE")
            << "; black-hole failed submissions " << base.bh_failed
            << " -> " << guarded.bh_failed << " (" << drop << "x) -> "
            << (big_drop ? ">=5x DROP" : "<5x")
            << "; tripped=" << (tripped ? "yes" : "no")
            << " readmitted=" << (readmitted ? "yes" : "no") << '\n';
  std::cout
      << "\nreading: without breakers the black hole's empty queue keeps "
         "winning the rank, so the stream funnels in and dies job by job "
         "-- the paper's operators broke this loop by hand with tickets "
         "and site-verify runs.  With breakers the EWMA trips within "
         "minutes of the first fast-fail burst, the site is quarantined "
         "(ticket opened, held jobs re-matched, gang leases returned), "
         "probe jobs re-certify it after the repair, and the stream "
         "returns -- at equal or better total completions.\n";
  grid3::bench::scale_note();
  return (no_worse && big_drop && tripped && readmitted) ? 0 : 1;
}
