// Site-health circuit breakers: EWMA trip mechanics, ticket lifecycle,
// quarantine exclusion from broker matching, gang-lease return on trip,
// probed re-admission after repair, rebind-budget exemption, the
// monitor's event log and iGOC tickets as the one record of each trip
// (Troubleshooter-correlatable), a bus that carries only Ganglia and
// MonALISA, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "gram/gatekeeper.h"
#include "health/health.h"
#include "monitoring/acdc.h"
#include "monitoring/bus.h"
#include "monitoring/troubleshoot.h"
#include "pacman/vdt.h"
#include "placement/ledger.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workflow/dag.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::health {
namespace {

using broker::JobSpec;

// --- unit: the breaker state machine --------------------------------------

/// Probes that pass at once, for monitors whose breakers never reach
/// half-open.
void passing_probe(const std::string&, std::function<void(bool)> done) {
  done(true);
}

TEST(Monitor, TripsAfterEwmaThresholdWithTicket) {
  sim::Simulation sim;
  SiteHealthMonitor mon{sim, passing_probe};
  std::vector<std::string> opened;
  mon.set_tickets(
      [&](const std::string& site, const std::string& issue, Time) {
        opened.push_back(site + ": " + issue);
        return std::uint64_t{7};
      },
      [](std::uint64_t, Time) {});

  for (int i = 0; i < 6; ++i) {
    mon.report("bh", Service::kSubmit, false, sim.now());
  }
  EXPECT_EQ(mon.state("bh"), BreakerState::kOpen);
  EXPECT_TRUE(mon.quarantined("bh"));
  EXPECT_EQ(mon.trips(), 1u);
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_NE(opened[0].find("bh"), std::string::npos);
  EXPECT_NE(opened[0].find("submit"), std::string::npos);

  // The monitor's event log holds the trip once.
  ASSERT_EQ(mon.events().size(), 1u);
  EXPECT_EQ(mon.events()[0].site, "bh");
  EXPECT_EQ(mon.events()[0].event, "trip");
  EXPECT_EQ(mon.events()[0].service, "submit");
}

TEST(Monitor, MinSamplesGateBlocksEarlyTrip) {
  sim::Simulation sim;
  SiteHealthMonitor mon{sim, passing_probe};
  // EWMA crosses the threshold after 4 failures, but the sample gate
  // (6) holds the breaker closed: one unlucky burst must not quarantine.
  for (int i = 0; i < 5; ++i) {
    mon.report("s", Service::kSubmit, false, sim.now());
  }
  EXPECT_EQ(mon.state("s"), BreakerState::kClosed);
  EXPECT_FALSE(mon.quarantined("s"));
  EXPECT_EQ(mon.trips(), 0u);
}

TEST(Monitor, ServicesScoreIndependently) {
  sim::Simulation sim;
  SiteHealthMonitor mon{sim, passing_probe};
  for (int i = 0; i < 10; ++i) {
    mon.report("s", Service::kStorage, false, sim.now());
    mon.report("s", Service::kSubmit, true, sim.now());
  }
  EXPECT_GT(mon.score("s", Service::kStorage), 0.9);
  EXPECT_LT(mon.score("s", Service::kSubmit), 0.01);
}

TEST(Monitor, ProbeFailureReopensWithEscalatedQuarantine) {
  sim::Simulation sim;
  HealthConfig cfg;
  int outcome_index = 0;
  std::vector<bool> outcomes = {false, true, true, true};  // first probe dies
  SiteHealthMonitor mon{
      sim,
      [&](const std::string&, std::function<void(bool)> done) {
        done(outcomes[static_cast<std::size_t>(outcome_index++) %
                      outcomes.size()]);
      },
      cfg};
  std::vector<std::uint64_t> closed;
  mon.set_tickets(
      [](const std::string&, const std::string&, Time) {
        return std::uint64_t{42};
      },
      [&](std::uint64_t id, Time) { closed.push_back(id); });
  for (int i = 0; i < 6; ++i) {
    mon.report("s", Service::kSubmit, false, sim.now());
  }
  // Half-open at +30min; the probe fails instantly -> second trip with
  // an escalated (60min) quarantine.
  sim.run_until(cfg.quarantine_base + Time::minutes(1));
  EXPECT_EQ(mon.state("s"), BreakerState::kOpen);
  EXPECT_EQ(mon.trips(), 2u);

  // Still open at +30min into the second quarantine (escalation doubled
  // it), then half-open after the full 60min and re-admitted by the
  // remaining probes.
  sim.run_until(cfg.quarantine_base + Time::minutes(1) +
                cfg.quarantine_base);
  EXPECT_EQ(mon.state("s"), BreakerState::kOpen);
  sim.run_until(Time::hours(8));
  EXPECT_EQ(mon.state("s"), BreakerState::kClosed);
  EXPECT_FALSE(mon.quarantined("s"));
  EXPECT_EQ(mon.readmissions(), 1u);
  EXPECT_GE(mon.probes(), 3u);
  // Both trips share the one ticket, which re-admission closes.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0], 42u);
  // Re-admission resets the score: pre-repair history is forgotten.
  EXPECT_EQ(mon.score("s", Service::kSubmit), 0.0);
  ASSERT_FALSE(mon.events().empty());
  EXPECT_EQ(mon.events().back().event, "readmit");
}

TEST(Monitor, HalfOpenWithProbeSubmitterStillQuarantinesProduction) {
  sim::Simulation sim;
  bool probe_asked = false;
  SiteHealthMonitor mon{
      sim, [&](const std::string&, std::function<void(bool)>) {
        probe_asked = true;  // never completes: probation stays pending
      }};
  for (int i = 0; i < 6; ++i) {
    mon.report("s", Service::kTransfer, false, sim.now());
  }
  sim.run_until(mon.config().quarantine_base + Time::minutes(1));
  EXPECT_EQ(mon.state("s"), BreakerState::kHalfOpen);
  EXPECT_TRUE(probe_asked);
  // Probes own re-certification: production must keep steering around.
  EXPECT_TRUE(mon.quarantined("s"));
}

TEST(Monitor, ReportBatchClassifiesFastFails) {
  sim::Simulation sim;
  SiteHealthMonitor mon{sim, passing_probe};
  const Time requested = Time::hours(10);
  // Dies at 2% of its requested walltime: the black-hole signature.
  mon.report_batch("s", false, Time::zero(), Time::minutes(12), requested,
                   sim.now());
  EXPECT_GT(mon.score("s", Service::kBatch), 0.0);
  const double after_fast = mon.score("s", Service::kBatch);
  // A genuine walltime kill at 90% of the request is not a health
  // signal: score unchanged.
  mon.report_batch("s", false, Time::zero(), Time::hours(9), requested,
                   sim.now());
  EXPECT_EQ(mon.score("s", Service::kBatch), after_fast);
  // Success decays the score.
  mon.report_batch("s", true, Time::zero(), Time::hours(9), requested,
                   sim.now());
  EXPECT_LT(mon.score("s", Service::kBatch), after_fast);
}

// --- unit: the one GRAM-outcome classifier ---------------------------------

TEST(GramOutcomeClassifier, ReportsPerStatusTable) {
  using gram::GramStatus;
  struct Report {
    const char* site;
    Service service;
    bool ok;
  };
  struct Row {
    GramStatus status;
    Time lived;  ///< submitted -> finished; the walltime request is 4 h
    std::vector<Report> reports;
  };
  // Every status, with the (site, service, ok) reports it must make.
  const std::vector<Row> table = {
      {GramStatus::kCompleted, Time::hours(3),
       {{"exec", Service::kSubmit, true}, {"exec", Service::kBatch, true}}},
      {GramStatus::kAuthenticationFailed, Time::zero(), {}},
      {GramStatus::kGatekeeperDown, Time::zero(),
       {{"exec", Service::kSubmit, false}}},
      {GramStatus::kGatekeeperOverloaded, Time::zero(),
       {{"exec", Service::kSubmit, false}}},
      {GramStatus::kStageInFailed, Time::minutes(5),
       {{"exec", Service::kTransfer, false}}},
      {GramStatus::kSubmitRejected, Time::zero(), {}},
      // Under a quarter of the request: the fast-fail signature.
      {GramStatus::kJobKilled, Time::minutes(30),
       {{"exec", Service::kBatch, false}}},
      // A genuine walltime kill says nothing about the site.
      {GramStatus::kJobKilled, Time::hours(3), {}},
      {GramStatus::kStageOutFailed, Time::hours(3),
       {{"exec", Service::kTransfer, false}}},
      {GramStatus::kProxyExpired, Time::hours(3), {}},
      // A full disk scores the storage site it is given.
      {GramStatus::kDiskFull, Time::hours(3),
       {{"se", Service::kStorage, false}}},
      {GramStatus::kApplicationError, Time::hours(3), {}},
      {GramStatus::kEnvironmentError, Time::hours(3),
       {{"exec", Service::kBatch, false}}},
  };
  const std::vector<Service> services = {Service::kSubmit, Service::kBatch,
                                         Service::kTransfer,
                                         Service::kStorage};
  for (const Row& row : table) {
    SCOPED_TRACE(std::string(gram::to_string(row.status)) + " after " +
                 std::to_string(row.lived.to_minutes()) + " min");
    sim::Simulation sim;
    SiteHealthMonitor mon{sim, passing_probe};
    const double a = mon.config().ewma_alpha;
    // One failure on every (site, service) first, so a success report
    // shows as a decay and a failure as a rise.
    for (const char* site : {"exec", "se"}) {
      for (Service svc : services) mon.report(site, svc, false, sim.now());
    }
    gram::GramResult r;
    r.status = row.status;
    r.submitted = Time::hours(1);
    r.finished = r.submitted + row.lived;
    broker::report_gram_outcome(mon, "exec", "se", r, Time::hours(4),
                                sim.now());
    for (const char* site : {"exec", "se"}) {
      for (Service svc : services) {
        double want = a;
        for (const Report& rep : row.reports) {
          if (std::string(rep.site) == site && rep.service == svc) {
            want = (1.0 - a) * a + (rep.ok ? 0.0 : a);
          }
        }
        EXPECT_DOUBLE_EQ(mon.score(site, svc), want)
            << site << "/" << to_string(svc);
      }
    }
  }
}

// --- integration: the brokered fabric --------------------------------------

/// Two-plus-site fabric with a health monitor attached; `bh_cpus` sizes
/// the would-be black hole so queue-depth ranking prefers it.
struct HealthFabric {
  sim::Simulation sim;
  core::Grid3 grid{sim, 4242};
  vo::VomsProxy proxy;

  explicit HealthFabric(int bh_cpus = 64, int good_sites = 2,
                        bool attach_health = true) {
    grid.add_vo("usatlas");
    pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                    Time::minutes(5));
    auto add = [&](const std::string& name, int cpus) {
      core::SiteConfig c;
      c.name = name;
      c.owner_vo = "usatlas";
      c.cpus = cpus;
      c.policy.max_walltime = Time::hours(48);
      c.policy.dedicated = true;
      grid.add_site(c, /*reliability=*/1000.0);
      grid.site(name)->install_application(grid.igoc().pacman_cache(),
                                           "app");
      grid.site(name)->gatekeeper().set_submission_flake_rate(0.0);
      grid.site(name)->gatekeeper().set_environment_error_rate(0.0);
    };
    add("blackhole", bh_cpus);
    for (int i = 0; i < good_sites; ++i) add("good" + std::to_string(i), 16);
    const vo::Certificate cert =
        grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy = *grid.make_proxy(cert, "usatlas", Time::hours(800));
    refresh_gridmaps();
    grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth);
    if (attach_health) grid.attach_health();
    grid.start_operations();
    sim.run_until(Time::minutes(6));  // first dynamic GRIS publication
  }

  void refresh_gridmaps() {
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    for (const auto& s : grid.sites()) s->refresh_gridmap(servers);
  }

  [[nodiscard]] JobSpec spec(Time runtime = Time::minutes(10)) const {
    JobSpec s;
    s.vo = "usatlas";
    s.app = "app";
    s.required_app = "app";
    s.runtime = runtime;
    return s;
  }

  [[nodiscard]] gram::GramJob job(Time runtime = Time::minutes(10)) const {
    gram::GramJob j;
    j.proxy = proxy;
    j.request.vo = "usatlas";
    j.request.requested_walltime = runtime + Time::hours(1);
    j.request.actual_runtime = runtime;
    return j;
  }
};

TEST(HealthIntegration, QuarantinedSiteExcludedFromMatching) {
  HealthFabric f;
  // Trip the black hole by hand: six submit failures.
  for (int i = 0; i < 6; ++i) {
    f.grid.health()->report("blackhole", Service::kSubmit, false,
                            f.sim.now());
  }
  ASSERT_TRUE(f.grid.health()->quarantined("blackhole"));

  std::vector<std::string> sites;
  auto* b = f.grid.broker("usatlas");
  for (int i = 0; i < 8; ++i) {
    b->submit(f.spec(), f.job(),
              [&](const broker::BrokeredResult& r) { sites.push_back(r.site); });
  }
  f.sim.run_until(f.sim.now() + Time::hours(2));
  ASSERT_EQ(sites.size(), 8u);
  for (const std::string& s : sites) {
    EXPECT_TRUE(s == "good0" || s == "good1") << "matched " << s;
  }
}

TEST(HealthIntegration, BlackHoleTripsAndWorkCompletesElsewhere) {
  HealthFabric f;
  f.grid.site("blackhole")->gatekeeper().set_environment_error_rate(1.0);

  int ok = 0, failed = 0;
  auto* b = f.grid.broker("usatlas");
  for (int i = 0; i < 40; ++i) {
    b->submit(f.spec(), f.job(), [&](const broker::BrokeredResult& r) {
      (r.ok() ? ok : failed) += 1;
    });
  }
  f.sim.run_until(f.sim.now() + Time::hours(24));

  EXPECT_GE(f.grid.health()->trips(), 1u);
  EXPECT_EQ(f.grid.health()->state("blackhole"), BreakerState::kOpen);
  // The detection cost is bounded by the min-sample gate: at most five
  // jobs die feeding the EWMA.  From the tripping failure onwards the
  // site's kills are re-matched (for free) and exclusion keeps the rest
  // away, so everything else completes on a good site.
  EXPECT_EQ(ok + failed, 40);
  EXPECT_LE(failed, 5);
  EXPECT_GE(ok, 35);

  // The trip is in the monitor's event log, one record per trip, and an
  // iGOC ticket is open at the black hole for the quarantine.
  std::size_t logged_trips = 0;
  for (const BreakerEvent& e : f.grid.health()->events()) {
    if (e.event == "trip") {
      EXPECT_EQ(e.site, "blackhole");
      ++logged_trips;
    }
  }
  EXPECT_EQ(logged_trips, f.grid.health()->trips());
  EXPECT_GE(f.grid.igoc().tickets().open_count(), 1u);
  bool ticket_at_hole = false;
  for (const core::TroubleTicket& t : f.grid.igoc().tickets().tickets()) {
    ticket_at_hole = ticket_at_hole || (t.site == "blackhole" && t.open());
  }
  EXPECT_TRUE(ticket_at_hole);
}

TEST(HealthIntegration, ProbedReadmissionAfterRepairClosesTicket) {
  HealthFabric f;
  f.grid.site("blackhole")->gatekeeper().set_environment_error_rate(1.0);

  auto* b = f.grid.broker("usatlas");
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    // Record each outcome in ACDC the way the application layer does, so
    // the Troubleshooter has job records to build failure bursts from.
    b->submit(f.spec(), f.job(), [&, i](const broker::BrokeredResult& r) {
      ok += r.ok();
      monitoring::JobRecord rec;
      rec.vo = "usatlas";
      rec.site = r.site;
      rec.app = "app";
      rec.submitted = r.gram.submitted;
      rec.finished = r.gram.finished;
      rec.success = r.ok();
      rec.site_problem = !r.ok();
      rec.failure = r.ok() ? "" : gram::to_string(r.gram.status);
      rec.submit_id = "usatlas/app/" + std::to_string(i);
      f.grid.igoc().job_db().insert(std::move(rec));
    });
  }
  f.sim.run_until(f.sim.now() + Time::hours(6));
  ASSERT_GE(f.grid.health()->trips(), 1u);

  // Repair the site; the next probation round re-certifies it.
  f.grid.site("blackhole")->gatekeeper().set_environment_error_rate(0.0);
  f.sim.run_until(f.sim.now() + Time::hours(30));

  EXPECT_GE(f.grid.health()->readmissions(), 1u);
  EXPECT_EQ(f.grid.health()->state("blackhole"), BreakerState::kClosed);
  EXPECT_FALSE(f.grid.health()->quarantined("blackhole"));
  EXPECT_GE(f.grid.health()->probes(), 3u);
  EXPECT_EQ(f.grid.igoc().tickets().open_count(), 0u);
  EXPECT_GE(ok, 15);  // at most the EWMA-feeding five are lost

  // The quarantine interval is the trip's iGOC ticket: it closed, and it
  // is Troubleshooter-correlatable -- the failure burst at the black
  // hole matches it.
  std::vector<monitoring::IncidentWindow> windows;
  for (const core::TroubleTicket& t : f.grid.igoc().tickets().tickets()) {
    windows.push_back(
        {t.id, t.site, t.issue, t.opened, t.closed.value_or(Time::max())});
  }
  ASSERT_GE(windows.size(), 1u);
  EXPECT_EQ(windows[0].site, "blackhole");
  EXPECT_NE(windows[0].closed, Time::max());
  monitoring::Troubleshooter shooter{f.grid.igoc().job_db()};
  auto bursts = monitoring::Troubleshooter::correlate(
      shooter.find_bursts(Time::zero(), f.sim.now(), 3), windows);
  bool attributed = false;
  for (const auto& burst : bursts) {
    if (burst.site == "blackhole" && burst.ticket.has_value()) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(HealthIntegration, TripReturnsGangLeaseAtQuarantinedPrimary) {
  HealthFabric f;
  auto* b = f.grid.broker("usatlas");
  auto* ledger = f.grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  // The bus carries only Figure 1's producers: the gang's lease and the
  // trip below stay in the ledger and the monitor that decide them.
  monitoring::MetricBus& bus = f.grid.igoc().bus();
  std::size_t samples = 0;
  std::set<std::string> foreign;
  const monitoring::SubscriptionId watch = bus.subscribe(
      "*", "*", [&](monitoring::MetricId id, Time, double) {
        ++samples;
        const std::string& name = bus.key(id).name;
        if (name.rfind("ganglia.", 0) != 0 &&
            name.rfind("monalisa.", 0) != 0) {
          foreign.insert(name);
        }
      });

  broker::GangSpec gang;
  gang.gang_id = "level-1";
  gang.intermediates = Bytes::gb(10);
  for (int i = 0; i < 2; ++i) {
    JobSpec m = f.spec(Time::hours(4));
    m.gang_id = "level-1";
    m.gang_intermediates = gang.intermediates;
    gang.members.push_back(m);
  }
  std::vector<gram::GramJob> jobs{f.job(Time::hours(4)),
                                  f.job(Time::hours(4))};
  b->submit_gang(std::move(gang), std::move(jobs),
                 [](std::size_t, const broker::BrokeredResult&) {});
  f.sim.run_until(f.sim.now() + Time::minutes(10));
  ASSERT_EQ(ledger->active(), 1u);  // gang lease held while members run

  // Trip the gang's primary (the large site wins the whole-fit) while
  // the members are still executing: the lease must come back.
  for (int i = 0; i < 6; ++i) {
    f.grid.health()->report("blackhole", Service::kSubmit, false,
                            f.sim.now());
  }
  EXPECT_EQ(ledger->active(), 0u);
  EXPECT_GE(ledger->released(), 1u);
  EXPECT_EQ(f.grid.health()->trips(), 1u);

  bus.unsubscribe(watch);
  EXPECT_GT(samples, 0u);
  std::string listed;
  for (const std::string& name : foreign) listed += " " + name;
  EXPECT_TRUE(foreign.empty()) << "non-producer keys on the bus:" << listed;
}

// --- integration: planning during a quarantine -----------------------------

/// Three-job workflow planned against the fabric's GIIS + broker.  The
/// planner itself never consults the health monitor; quarantine reaches
/// the plan only through the broker's provisional placement.
std::optional<workflow::ConcreteDag> plan_workflow(HealthFabric& f) {
  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  std::vector<std::string> targets;
  for (int i = 0; i < 3; ++i) {
    workflow::Derivation d;
    d.id = "job" + std::to_string(i);
    d.transformation = "tf";
    d.outputs = {"out" + std::to_string(i)};
    d.runtime = Time::hours(1);
    vdc.add_derivation(d);
    targets.push_back(d.outputs[0]);
  }
  const auto dag = vdc.request(targets);
  workflow::PegasusPlanner planner{f.grid.igoc().top_giis(),
                                   *f.grid.rls("usatlas")};
  planner.set_broker(f.grid.broker("usatlas"));
  workflow::PlannerConfig cfg;
  cfg.vo = "usatlas";
  util::Rng rng{123};
  return planner.plan(*dag, cfg, rng, f.sim.now());
}

/// Canonical byte dump of everything placement-relevant in a plan.
std::string dump_plan(const workflow::ConcreteDag& dag) {
  std::string out;
  for (const auto& n : dag.nodes) {
    out += n.name + "|" + n.site;
    if (n.broker_spec.has_value()) {
      out += "|c:";
      for (const auto& c : n.broker_spec->candidates) out += c + ",";
      out += "|se:" + n.broker_spec->stage_out_site;
      for (const auto& c : n.broker_spec->stage_out_fallbacks) {
        out += "," + c;
      }
    }
    out += "\n";
  }
  for (const auto& [a, b] : dag.edges) {
    out += std::to_string(a) + ">" + std::to_string(b) + "\n";
  }
  return out;
}

TEST(HealthIntegration, ProvisionalPlacementAvoidsQuarantinedSite) {
  HealthFabric f;
  for (int i = 0; i < 6; ++i) {
    f.grid.health()->report("blackhole", Service::kSubmit, false,
                            f.sim.now());
  }
  ASSERT_TRUE(f.grid.health()->quarantined("blackhole"));

  const auto plan = plan_workflow(f);
  ASSERT_TRUE(plan.has_value());
  std::size_t computes = 0;
  for (const auto& n : plan->nodes) {
    if (n.type != workflow::NodeType::kCompute) continue;
    ++computes;
    // The broker's provisional placement skips the quarantined site,
    // but the candidates keep it: the broker defers it at match time
    // and re-admits it if the quarantine lifts before launch.
    EXPECT_NE(n.site, "blackhole");
    ASSERT_TRUE(n.broker_spec.has_value());
    const auto& c = n.broker_spec->candidates;
    EXPECT_EQ(std::count(c.begin(), c.end(), "blackhole"), 1);
  }
  EXPECT_EQ(computes, 3u);
}

TEST(HealthIntegration, HealthAwarePlanIsByteIdentical) {
  // Two independent runs, each planning while blackhole is quarantined.
  auto run = []() -> std::string {
    HealthFabric f;
    for (int i = 0; i < 6; ++i) {
      f.grid.health()->report("blackhole", Service::kSubmit, false,
                              f.sim.now());
    }
    EXPECT_TRUE(f.grid.health()->quarantined("blackhole"));
    const auto plan = plan_workflow(f);
    return plan.has_value() ? dump_plan(*plan) : std::string{};
  };
  const std::string a = run();
  EXPECT_NE(a.find("blackhole"), std::string::npos);  // kept as candidate
  EXPECT_EQ(a, run());
}

TEST(HealthIntegration, DeferredCandidateReadmittedWhenQuarantineLifts) {
  HealthFabric f;
  for (int i = 0; i < 6; ++i) {
    f.grid.health()->report("blackhole", Service::kSubmit, false,
                            f.sim.now());
  }
  ASSERT_TRUE(f.grid.health()->quarantined("blackhole"));

  // A job whose only viable candidate is quarantined: "offline" is not
  // on the grid, so the match must wait for blackhole's re-admission.
  JobSpec s = f.spec();
  s.candidates = {"offline", "blackhole"};
  std::vector<std::string> sites;
  f.grid.broker("usatlas")->submit(
      s, f.job(),
      [&](const broker::BrokeredResult& r) { sites.push_back(r.site); });
  f.sim.run_until(f.sim.now() + Time::minutes(30));
  EXPECT_TRUE(sites.empty());  // held while the quarantine stands

  // The site is actually healthy, so probation probes re-certify it
  // once the base quarantine elapses; the held job then lands there.
  f.sim.run_until(f.sim.now() + Time::hours(48));
  EXPECT_EQ(f.grid.health()->state("blackhole"), BreakerState::kClosed);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "blackhole");
}

TEST(HealthIntegration, BreakerEventsAndMatchLogDeterministic) {
  auto run = [](std::string* events, std::string* matches) {
    HealthFabric f;
    f.grid.site("blackhole")->gatekeeper().set_environment_error_rate(1.0);
    auto* b = f.grid.broker("usatlas");
    for (int i = 0; i < 30; ++i) {
      b->submit(f.spec(), f.job(), [](const broker::BrokeredResult&) {});
    }
    f.sim.run_until(Time::hours(12));
    f.grid.site("blackhole")->gatekeeper().set_environment_error_rate(0.0);
    f.sim.run_until(Time::hours(40));
    *events = f.grid.health()->serialize_events();
    *matches = b->serialize_match_log();
  };
  std::string events_a, matches_a, events_b, matches_b;
  run(&events_a, &matches_a);
  run(&events_b, &matches_b);
  EXPECT_FALSE(events_a.empty());
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(matches_a, matches_b);
}

}  // namespace
}  // namespace grid3::health
