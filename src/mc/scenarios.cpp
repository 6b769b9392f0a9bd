#include "mc/scenarios.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/job_spec.h"
#include "core/grid3.h"
#include "core/site.h"
#include "health/health.h"
#include "mc/invariants.h"
#include "pacman/vdt.h"
#include "placement/ledger.h"
#include "rls/rls.h"
#include "srm/disk.h"

namespace grid3::mc {
namespace {

// ---------------------------------------------------------------------
// breaker: two independent sites tripped at the same instant.
// ---------------------------------------------------------------------

class BreakerRun final : public ExploredRun {
 public:
  BreakerRun() {
    health::HealthConfig cfg;
    cfg.ewma_alpha = 0.6;
    cfg.trip_threshold = 0.5;
    cfg.min_samples = 2;
    cfg.quarantine_base = Time::seconds(60);
    cfg.probes_required = 2;
    cfg.probe_interval = Time::seconds(30);
    monitor_ = std::make_unique<health::SiteHealthMonitor>(sim_, cfg);
    monitor_->set_probe_submitter(
        [this](const std::string& site, std::function<void(bool)> done) {
          // SIGMA's first probe fails, escalating its quarantine once;
          // everything else passes.  The verdict arrives 5 s later on
          // the site's own causal chain (tag inherited from the trip).
          const bool ok = !(site == "SIGMA" && probe_count_[site] == 0);
          ++probe_count_[site];
          sim_.schedule_in(Time::seconds(5),
                          [done = std::move(done), ok] { done(ok); });
        });
    invariant_ = std::make_unique<BreakerInvariant>(*monitor_);

    // Two submitter streams per site, all landing at t=10s.  Same-site
    // streams conflict (shared "hs:<site>" key); cross-site pairs are
    // independent -- the sleep sets collapse their interleavings and
    // the Foata digest check proves the two breaker chains commute.
    for (const char* site : {"SIGMA", "TAU"}) {
      for (const char* sub : {"a", "b"}) {
        sim::Simulation::ScopedTag tag{
            sim_, std::string{"sub:"} + sub + ":" + site + "|hs:" + site};
        sim_.schedule_at(Time::seconds(10), [this, site] {
          monitor_->report(site, health::Service::kSubmit, false, sim_.now());
        });
      }
    }
  }

  sim::Simulation& sim() override { return sim_; }
  std::vector<Invariant*> invariants() override { return {invariant_.get()}; }

  std::string digest() override {
    // Per-site event streams, NOT serialize_events(): the global log
    // interleaves the two sites' independent chains in arrival order,
    // which commuting them legitimately permutes.  Within one site the
    // order is causal and must be byte-stable.
    std::ostringstream out;
    for (const std::string& site : monitor_->sites()) {
      out << site << "=" << static_cast<int>(monitor_->state(site))
          << (monitor_->quarantined(site) ? "/q" : "/m") << ":";
      for (const health::BreakerEvent& e : monitor_->events()) {
        if (e.site != site) continue;
        out << e.event << "@" << e.at.ticks() << "(" << e.service << ","
            << e.score << ");";
      }
      out << "|";
    }
    out << "trips=" << monitor_->trips() << " probes=" << monitor_->probes()
        << " readmissions=" << monitor_->readmissions();
    return out.str();
  }

 private:
  sim::Simulation sim_;
  std::unique_ptr<health::SiteHealthMonitor> monitor_;
  std::unique_ptr<BreakerInvariant> invariant_;
  std::map<std::string, int> probe_count_;
};

// ---------------------------------------------------------------------
// rls-journal: registrations ride out an RLS outage in the write-ahead
// journal; recovery replay races the periodic refresh's own replay.
// ---------------------------------------------------------------------

class RlsOutageRun final : public ExploredRun {
 public:
  RlsOutageRun() : rls_{"usatlas"} {
    rls_.lrc_for("ALPHA");  // the target catalog exists before the storm
    invariant_ = std::make_unique<JournalInvariant>(rls_);

    {  // the collective outage: endpoint and RLI down together
      sim::Simulation::ScopedTag tag{sim_, "outage|rls"};
      sim_.schedule_at(Time::seconds(10), [this] {
        rls_.set_available(false);
        rls_.rli().set_available(false);
      });
    }
    // Two independent registration streams land at the same instant mid
    // outage.  Their journal ids permute across orders, so the digest
    // below serializes entries by (site, lfn), not log order.
    for (const char* job : {"a", "b"}) {
      sim::Simulation::ScopedTag tag{sim_, std::string{"job:"} + job};
      sim_.schedule_at(Time::seconds(20), [this, job] {
        rls::Replica r;
        r.pfn = std::string{"gsiftp://ALPHA/out-"} + job;
        r.size = Bytes::mb(100);
        r.registered = sim_.now();
        rls_.register_replica("ALPHA", std::string{"out-"} + job,
                              std::move(r), sim_.now());
      });
    }
    {  // repair: endpoint back up, then the recovery replay
      sim::Simulation::ScopedTag tag{sim_, "repair|rls"};
      sim_.schedule_at(Time::seconds(60), [this] {
        rls_.set_available(true);
        rls_.rli().set_available(true);
        rls_.replay(sim_.now());
      });
    }
    {  // the 20-min ops refresh (also a replay trigger) hits the same
      // tick as the repair; both orders must drain the journal exactly
      // once -- refresh-first is a no-op against the down endpoint.
      sim::Simulation::ScopedTag tag{sim_, "ops-refresh|rls"};
      sim_.schedule_at(Time::seconds(60),
                       [this] { rls_.refresh_all(sim_.now()); });
    }
  }

  sim::Simulation& sim() override { return sim_; }
  std::vector<Invariant*> invariants() override { return {invariant_.get()}; }

  std::string digest() override {
    std::ostringstream out;
    out << "size=" << rls_.journal().size()
        << " pending=" << rls_.journal().pending()
        << " replayed=" << rls_.journal().replayed()
        << " lost=" << rls_.lost_registrations() << " up=" << rls_.available()
        << "/" << rls_.rli().available();
    // Sorted by (site, lfn): the two registration streams are
    // independent, so their log order legitimately permutes.
    std::vector<std::string> facts;
    for (const rls::JournalEntry& e : rls_.journal().entries()) {
      facts.push_back(e.site + "/" + e.lfn + (e.applied ? "+" : "-"));
    }
    std::sort(facts.begin(), facts.end());
    for (const std::string& f : facts) out << " " << f;
    for (const char* lfn : {"out-a", "out-b"}) {
      out << " " << lfn << "@";
      for (const auto& [site, rep] : rls_.locate(lfn, sim_.now())) {
        out << site << ";";
      }
    }
    return out.str();
  }

 private:
  sim::Simulation sim_;
  rls::ReplicaLocationService rls_;
  std::unique_ptr<JournalInvariant> invariant_;
};

// ---------------------------------------------------------------------
// placement / gang: reduced Grid3 fabrics.
// ---------------------------------------------------------------------

/// Owns a reduced Grid3 and the invariants wired into it.  The concrete
/// scenario is defined by what the constructor-caller schedules.
class GridRun final : public ExploredRun {
 public:
  GridRun() : grid_{std::make_unique<core::Grid3>(sim_, 77)} {}

  /// One-site-plus-archive fabric (the PlacementFixture recipe, shrunk).
  void build(bool with_archive, broker::BrokerConfig cfg) {
    grid_->add_vo("usatlas");
    broker_ = &grid_->attach_broker("usatlas", broker::PolicyKind::kQueueDepth,
                                    cfg);
    ledger_ = grid_->placement("usatlas");
    pacman::add_application_package(grid_->igoc().pacman_cache(), "app",
                                    Time::minutes(5));
    core::SiteConfig a;
    a.name = "ALPHA";
    a.owner_vo = "usatlas";
    a.cpus = 16;
    a.disk = Bytes::gb(20);
    a.policy.max_walltime = Time::hours(48);
    a.policy.dedicated = true;
    grid_->add_site(a, /*reliability=*/1000.0);
    std::vector<std::string> sites{"ALPHA"};
    if (with_archive) {
      core::SiteConfig se = a;
      se.name = "ARCHIVE";
      se.cpus = 2;
      se.disk = Bytes::gb(3);
      se.deploy_srm = true;
      grid_->add_site(se, /*reliability=*/1000.0);
      sites.push_back("ARCHIVE");
    }
    grid_->site("ALPHA")->install_application(grid_->igoc().pacman_cache(),
                                              "app");
    const vo::Certificate cert =
        grid_->add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy_ = *grid_->make_proxy(cert, "usatlas", Time::hours(200));
    const std::vector<const vo::VomsServer*> servers{grid_->voms("usatlas")};
    for (const std::string& site : sites) {
      grid_->site(site)->refresh_gridmap(servers);
      grid_->site(site)->gatekeeper().set_submission_flake_rate(0.0);
      grid_->site(site)->gatekeeper().set_environment_error_rate(0.0);
    }
    lease_audit_ = std::make_unique<LeaseAuditInvariant>(*ledger_);
    gang_lease_ = std::make_unique<GangLeaseInvariant>(*broker_, *ledger_);
    grid_->start_operations();
    sim_.run_until(Time::minutes(1));  // let monitoring publish
  }

  [[nodiscard]] broker::JobSpec job_spec() const {
    broker::JobSpec spec;
    spec.vo = "usatlas";
    spec.app = "tf";
    spec.required_app = "app";
    spec.runtime = Time::minutes(10);
    return spec;
  }

  [[nodiscard]] gram::GramJob gram_job() const {
    gram::GramJob job;
    job.proxy = proxy_;
    job.request.vo = proxy_.vo;
    job.request.requested_walltime = Time::minutes(15);
    job.request.actual_runtime = Time::minutes(10);
    return job;
  }

  sim::Simulation& sim() override { return sim_; }
  std::vector<Invariant*> invariants() override {
    return {lease_audit_.get(), gang_lease_.get()};
  }

  std::string digest() override {
    std::ostringstream out;
    out << "acq=" << ledger_->acquired() << " con=" << ledger_->consumed()
        << " rel=" << ledger_->released() << " rej=" << ledger_->rejected()
        << " active=" << ledger_->active()
        << " gb=" << ledger_->leased_bytes().to_gb()
        << " matches=" << broker_->matches() << " holds=" << broker_->holds()
        << " sholds=" << broker_->storage_holds()
        << " rebinds=" << broker_->rebinds()
        << " ganglive=" << broker_->live_gang_leases().size();
    for (const std::string& site : {std::string{"ALPHA"}}) {
      out << " " << site << ".used=" << grid_->site(site)->disk().used().count();
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << " r" << i << "=";
      if (!results[i].has_value()) {
        out << "pending";
      } else {
        out << static_cast<int>(results[i]->gram.status) << "@"
            << results[i]->site << ">" << results[i]->archive_site;
      }
    }
    return out.str();
  }

  sim::Simulation sim_;
  std::unique_ptr<core::Grid3> grid_;
  broker::ResourceBroker* broker_ = nullptr;
  placement::PlacementLedger* ledger_ = nullptr;
  vo::VomsProxy proxy_;
  std::unique_ptr<LeaseAuditInvariant> lease_audit_;
  std::unique_ptr<GangLeaseInvariant> gang_lease_;
  std::vector<std::optional<broker::BrokeredResult>> results;
};

/// The storage-hold collision: a job held by a full ARCHIVE, an operator
/// sweep that frees the space and forces a requeue kick into the same
/// tick as the job's own hold-retry timer.  With `seed_bug` the broker's
/// historical stale-hold-release is re-armed.
std::unique_ptr<GridRun> make_placement_run(bool seed_bug) {
  auto run = std::make_unique<GridRun>();
  broker::BrokerConfig cfg;
  cfg.hold.jitter = 0.0;  // retry lands exactly at hold + 5 min
  run->build(/*with_archive=*/true, cfg);
  if (seed_bug) run->broker_->test_seed_stale_hold_release();
  run->results.resize(1);

  // Fill the 3 GB archive so the 1 GB lease is refused at match time.
  run->grid_->site("ARCHIVE")->disk().consume_unmanaged(Bytes::mb(2500));

  GridRun* r = run.get();
  {
    sim::Simulation::ScopedTag tag{run->sim_, "job:J"};
    run->sim_.schedule_at(Time::seconds(61.5), [r] {
      broker::JobSpec spec = r->job_spec();
      spec.stage_out_site = "ARCHIVE";
      spec.stage_out = Bytes::gb(1);
      spec.output_lfns = {"outJ"};
      r->broker_->submit(spec, r->gram_job(), [r](const auto& res) {
        r->results[0] = res;
      });
    });
  }
  {
    // Operator sweep at t=360.5s: free the archive and force a requeue
    // kick.  The kick fires at 361.5s -- the same instant as the held
    // job's retry timer (hold at 61.5s + 5 min) -- and shares the "rb"
    // broker key with it, so the explorer tries both orders.
    sim::Simulation::ScopedTag tag{run->sim_, "ops"};
    run->sim_.schedule_at(Time::seconds(360.5), [r] {
      r->grid_->site("ARCHIVE")->disk().cleanup(Bytes::mb(2500));
      // The public requeue entry point (the site argument only matters
      // for gang leases parked there, and none exist here).
      r->broker_->on_site_quarantined("ops-sweep");
    });
  }
  return run;
}

/// Two-member gang at ALPHA whose completions collide with a quarantine
/// trip at the primary: three dependent actors, six orders, and the
/// gang lease must drain exactly once in every one of them.
std::unique_ptr<GridRun> make_gang_run(std::optional<Time> trip_at) {
  auto run = std::make_unique<GridRun>();
  run->build(/*with_archive=*/false, {});
  run->results.resize(2);

  GridRun* r = run.get();
  {
    sim::Simulation::ScopedTag tag{run->sim_, "gang-submit"};
    run->sim_.schedule_at(Time::seconds(61.5), [r] {
      broker::GangSpec gang;
      gang.gang_id = "g1";
      gang.intermediates = Bytes::gb(1);
      for (int i = 0; i < 2; ++i) {
        broker::JobSpec spec = r->job_spec();
        spec.gang_id = "g1";
        spec.gang_width = 2;
        spec.gang_intermediates = gang.intermediates;
        gang.members.push_back(spec);
      }
      r->broker_->submit_gang(std::move(gang), {r->gram_job(), r->gram_job()},
                              [r](std::size_t member, const auto& res) {
                                r->results[member] = res;
                              });
    });
  }
  if (trip_at.has_value()) {
    sim::Simulation::ScopedTag tag{run->sim_, "ops|site:ALPHA|rb"};
    run->sim_.schedule_at(*trip_at, [r] {
      r->broker_->on_site_quarantined("ALPHA");
    });
  }
  return run;
}

/// When both gang members resolve (they are identical, so they finish in
/// the same tick).  Run once, cached: the trip event is then scheduled
/// to collide with it exactly.
Time gang_completion_time() {
  static const Time cached = [] {
    auto run = make_gang_run(std::nullopt);
    run->sim_.run_until(Time::hours(2));
    Time last = Time::zero();
    // Both results carry gram.finished = the completion event's time.
    for (const auto& res : run->results) {
      if (res.has_value() && res->gram.finished > last) {
        last = res->gram.finished;
      }
    }
    return last;
  }();
  return cached;
}

}  // namespace

std::vector<NamedScenario> reduced_scenarios() {
  std::vector<NamedScenario> out;

  {
    NamedScenario s;
    s.name = "breaker";
    s.description =
        "two sites tripped by simultaneous failure streams; escalating "
        "quarantine, probe re-certification, re-admission";
    s.factory = [] { return std::make_unique<BreakerRun>(); };
    s.config.horizon = Time::seconds(600);
    out.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.name = "placement";
    s.description =
        "storage-held job: operator requeue kick races the hold-retry "
        "timer over the freed archive SE";
    s.factory = [] { return make_placement_run(/*seed_bug=*/false); };
    s.config.horizon = Time::hours(2);
    out.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.name = "gang";
    s.description =
        "gang member completions race a quarantine trip at the primary "
        "site; the gang lease must drain exactly once on every order";
    s.factory = [] { return make_gang_run(gang_completion_time()); };
    s.config.horizon = Time::hours(2);
    out.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.name = "rls-journal";
    s.description =
        "registrations land mid RLS outage; the recovery replay races "
        "the periodic refresh's replay and every entry must apply "
        "exactly once with nothing lost";
    s.factory = [] { return std::make_unique<RlsOutageRun>(); };
    s.config.horizon = Time::seconds(300);
    out.push_back(std::move(s));
  }
  return out;
}

NamedScenario seeded_lease_bug_scenario() {
  NamedScenario s;
  s.name = "placement-seeded-bug";
  s.description =
      "the placement scenario with the historical stale-hold-release "
      "re-seeded: the kick-before-retry order releases an in-flight lease";
  s.factory = [] { return make_placement_run(/*seed_bug=*/true); };
  s.config.horizon = Time::hours(2);
  return s;
}

}  // namespace grid3::mc
