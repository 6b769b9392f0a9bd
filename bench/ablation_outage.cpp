// Ablation H: collective-service outages with graceful degradation vs
// the naive baseline (section 5's central services -- the iGOC index,
// the per-VO RLS -- and section 6's operations reality: services fail,
// and the grid must keep scheduling).  One binary replays the same job
// stream three times:
//
//   baseline  degraded stack, calm weather (no outages)
//   degraded  stale-view brokering + write-ahead registration journal,
//             under an ops-calendar outage storm
//   naive     the same storm with both mitigations off: an index outage
//             empties the broker view (submissions are rejected) and
//             registrations against the down catalog are dropped
//
// The storm itself is deterministic: scheduled-downtime windows on two
// collective bundles (the iGOC top index; the VO RLS), no RNG.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "broker/broker.h"
#include "core/failure.h"
#include "core/grid3.h"
#include "core/site.h"
#include "pacman/vdt.h"
#include "rls/rls.h"

namespace {

using namespace grid3;

const Time kJobRuntime = Time::minutes(20);
const Time kSubmitEvery = Time::minutes(2);
// GIIS windows sit inside the broker's 30-min default staleness bound?
// No -- the bench raises the bound to 1 h so a 45-min maintenance
// window is survivable on the frozen view, as the ops calendar would
// plan it.
const Time kStaleBound = Time::hours(1);
const Time kGiisWindow = Time::minutes(45);
const Time kRlsWindow = Time::minutes(40);

struct Outcome {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t registered = 0;      // registrations attempted (job done)
  std::size_t visible = 0;         // LFNs locatable at the end
  std::size_t lost = 0;            // dropped by the naive write path
  std::size_t journal_pending = 0;
  std::size_t journal_replayed = 0;
  std::uint64_t stale_matches = 0;
  std::size_t downtime_windows = 0;
};

Outcome run_mode(const char* label, bool storm, bool naive) {
  const int jobs = bench::quick_or(300, 90);
  sim::Simulation sim;
  core::Grid3 grid{sim, bench::seed()};
  std::cout << "[mode " << label << "] running ... " << std::flush;
  grid.add_vo("usatlas");
  pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                  Time::minutes(5));
  const std::vector<std::pair<std::string, int>> sites{
      {"alpha", 48}, {"beta", 24}, {"gamma", 24}, {"delta", 24}};
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
  broker::BrokerConfig bcfg;
  bcfg.stale_view_max = naive ? Time::zero() : kStaleBound;
  grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth, bcfg);
  rls::ReplicaLocationService* rls = grid.rls("usatlas");
  rls->set_journal_enabled(!naive);

  // Collective bundles the ops calendar can target; the windows below
  // are the only storm.
  grid.failures().attach_collective("top-index",
                                    {.giis = &grid.igoc().top_giis()});
  grid.failures().attach_collective("usatlas-rls", {.rls = rls});

  grid.start_operations();
  sim.run_until(Time::minutes(6));

  Outcome out;
  const Time submit_start = sim.now();
  const Time submit_end = submit_start + kSubmitEvery * jobs;
  if (storm) {
    // Alternating maintenance windows across the submission span: the
    // index goes down at 20% and 60% of the span, the RLS at 40% and
    // 80%.  Every window fits the raised staleness bound.
    const Time span = submit_end - submit_start;
    const auto at = [&](double frac) {
      return submit_start + Time::seconds(span.to_seconds() * frac);
    };
    for (const double frac : {0.2, 0.6}) {
      grid.failures().schedule_downtime({"top-index", at(frac), kGiisWindow});
      ++out.downtime_windows;
    }
    for (const double frac : {0.4, 0.8}) {
      grid.failures().schedule_downtime({"usatlas-rls", at(frac), kRlsWindow});
      ++out.downtime_windows;
    }
  }

  // The job stream; every completion registers its output replica, the
  // step Grid3's registration scripts ran from the worker node.
  std::vector<std::string> lfns;
  for (int i = 0; i < jobs; ++i) {
    sim.schedule_in(submit_start - sim.now() + kSubmitEvery * i, [&, i] {
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
          spec, std::move(job), [&, i](const broker::BrokeredResult& r) {
            if (!r.ok()) {
              ++out.failed;
              return;
            }
            ++out.completed;
            const std::string lfn = "out-" + std::to_string(i);
            rls::Replica rep;
            rep.pfn = "gsiftp://" + r.site + "/" + lfn;
            rep.size = Bytes::mb(100);
            rep.registered = sim.now();
            rls->register_replica(r.site, lfn, std::move(rep), sim.now());
            lfns.push_back(lfn);
            ++out.registered;
          });
    });
  }
  sim.run_until(submit_end + Time::hours(3));

  for (const std::string& lfn : lfns) {
    if (!rls->locate(lfn, sim.now()).empty()) ++out.visible;
  }
  out.lost = rls->lost_registrations();
  out.journal_pending = rls->journal().pending();
  out.journal_replayed = rls->journal().replayed();
  out.stale_matches = grid.broker("usatlas")->stale_matches();
  std::cout << "done (" << sim.executed() << " events, " << out.completed
            << "/" << jobs << " jobs)\n";
  return out;
}

}  // namespace

int main() {
  using grid3::util::AsciiTable;
  grid3::bench::header(
      "Ablation H: collective-service outages with graceful degradation",
      "section 5 central services + section 6 operations: index and "
      "catalog outages vs stale-view brokering and the WAL journal");

  const Outcome base = run_mode("baseline (no outages)", false, false);
  const Outcome degraded = run_mode("degraded (storm)", true, false);
  const Outcome naive = run_mode("naive (storm)", true, true);

  AsciiTable table{{"mode", "completed", "failed", "registered", "visible",
                    "lost regs", "journal pending", "replayed",
                    "stale matches"}};
  const auto row = [&](const std::string& label, const Outcome& o) {
    table.add_row({label, AsciiTable::integer(static_cast<long>(o.completed)),
                   AsciiTable::integer(static_cast<long>(o.failed)),
                   AsciiTable::integer(static_cast<long>(o.registered)),
                   AsciiTable::integer(static_cast<long>(o.visible)),
                   AsciiTable::integer(static_cast<long>(o.lost)),
                   AsciiTable::integer(static_cast<long>(o.journal_pending)),
                   AsciiTable::integer(static_cast<long>(o.journal_replayed)),
                   AsciiTable::integer(static_cast<long>(o.stale_matches))});
  };
  row("baseline", base);
  row("degraded", degraded);
  row("naive", naive);
  std::cout << '\n';
  table.print(std::cout);

  const double floor = 0.9 * static_cast<double>(base.completed);
  const bool holds_up = static_cast<double>(degraded.completed) >= floor;
  const bool nothing_lost = degraded.lost == 0 &&
                            degraded.journal_pending == 0 &&
                            degraded.visible == degraded.registered;
  const bool mitigations_used =
      degraded.stale_matches > 0 && degraded.journal_replayed > 0;
  const bool naive_loses_jobs = naive.completed < degraded.completed;
  const bool naive_loses_regs = naive.lost > 0;
  std::cout << "\nacceptance: degraded completions " << degraded.completed
            << " vs baseline " << base.completed << " -> "
            << (holds_up ? ">=90%" : "<90%") << "; degraded lost "
            << degraded.lost << " pending " << degraded.journal_pending
            << " visible " << degraded.visible << "/" << degraded.registered
            << " -> " << (nothing_lost ? "NOTHING LOST" : "REGS LOST")
            << "; stale matches " << degraded.stale_matches << " replayed "
            << degraded.journal_replayed << " -> "
            << (mitigations_used ? "MITIGATIONS EXERCISED" : "IDLE")
            << "; naive " << naive.completed << " completions / "
            << naive.lost << " lost regs -> "
            << (naive_loses_jobs && naive_loses_regs ? "NAIVE LOSES BOTH"
                                                     : "NAIVE NOT WORSE")
            << '\n';
  std::cout << "result-json: {\"baseline_completed\": " << base.completed
            << ", \"degraded_completed\": " << degraded.completed
            << ", \"naive_completed\": " << naive.completed
            << ", \"degraded_lost\": " << degraded.lost
            << ", \"naive_lost\": " << naive.lost
            << ", \"degraded_pending\": " << degraded.journal_pending
            << ", \"degraded_replayed\": " << degraded.journal_replayed
            << ", \"degraded_visible\": " << degraded.visible
            << ", \"degraded_registered\": " << degraded.registered
            << ", \"stale_matches\": " << degraded.stale_matches << "}\n";
  std::cout
      << "\nreading: with the index down, a broker with no staleness "
         "budget sees an empty view and rejects everything submitted "
         "until the window ends, and registrations against the down "
         "catalog vanish silently -- the paper's operators rode these "
         "windows out by hand.  The degraded stack freezes the "
         "last-known-good view (rank-penalized, within a bounded "
         "staleness window) so matchmaking continues, journals every "
         "registration intent, and replays the journal exactly once on "
         "recovery: the storm costs a few percent of throughput and "
         "zero catalog entries.\n";
  grid3::bench::scale_note();
  return (holds_up && nothing_lost && mitigations_used && naive_loses_jobs &&
          naive_loses_regs)
             ? 0
             : 1;
}
