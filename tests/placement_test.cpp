// Unit + integration tests for the unified data-placement layer:
// PlacementLedger lease lifecycle, broker lease threading (full archive
// = match-time hold, not a stage-out failure), and the drained-scenario
// invariant that SRM reserved space returns to zero on every path.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "pacman/vdt.h"
#include "placement/ledger.h"
#include "sim/simulation.h"
#include "srm/disk.h"
#include "srm/srm.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::placement {
namespace {

/// Single-site stub for ledger unit tests.
class StubDirectory : public StorageDirectory {
 public:
  srm::StorageResourceManager* srm = nullptr;
  srm::DiskVolume* vol = nullptr;
  srm::StorageResourceManager* storage(const std::string&) override {
    return srm;
  }
  srm::DiskVolume* volume(const std::string&) override { return vol; }
  gridftp::GridFtpServer* ftp(const std::string&) override {
    return nullptr;
  }
};

/// Multi-site stub for failover-chain unit tests: each site gets its own
/// volume, optionally fronted by an SRM.
class ChainDirectory : public StorageDirectory {
 public:
  struct Entry {
    srm::StorageResourceManager* srm = nullptr;
    srm::DiskVolume* vol = nullptr;
  };
  std::map<std::string, Entry> sites;
  srm::StorageResourceManager* storage(const std::string& s) override {
    auto it = sites.find(s);
    return it == sites.end() ? nullptr : it->second.srm;
  }
  srm::DiskVolume* volume(const std::string& s) override {
    auto it = sites.find(s);
    return it == sites.end() ? nullptr : it->second.vol;
  }
  gridftp::GridFtpServer* ftp(const std::string&) override {
    return nullptr;
  }
};

TEST(PlacementLedger, AcquireReservesAndConsumeConvertsToAllocation) {
  srm::DiskVolume disk{"se:/data", Bytes::gb(10)};
  srm::StorageResourceManager srm{"se", disk};
  StubDirectory dir;
  dir.srm = &srm;
  dir.vol = &disk;
  PlacementLedger ledger{"usatlas", dir};

  const auto res =
      ledger.acquire("SE", Bytes::gb(2), "dc2", {"out"}, Time::zero());
  ASSERT_TRUE(res.leased());
  EXPECT_EQ(ledger.active(), 1u);
  EXPECT_EQ(ledger.leased_bytes(), Bytes::gb(2));
  EXPECT_EQ(srm.reserved_total(), Bytes::gb(2));
  EXPECT_NE(ledger.srm_for(res.lease), nullptr);
  ASSERT_NE(ledger.find(res.lease), nullptr);
  EXPECT_NE(ledger.find(res.lease)->reservation, 0u);

  EXPECT_TRUE(ledger.consume(res.lease));
  // The archived file persists as a plain allocation; the reservation
  // itself has drained.
  EXPECT_EQ(srm.reserved_total(), Bytes::zero());
  EXPECT_EQ(disk.used(), Bytes::gb(2));
  EXPECT_EQ(ledger.active(), 0u);
  EXPECT_EQ(ledger.acquired(), 1u);
  EXPECT_EQ(ledger.consumed(), 1u);
}

TEST(PlacementLedger, ReleaseReturnsEveryByte) {
  srm::DiskVolume disk{"se:/data", Bytes::gb(10)};
  srm::StorageResourceManager srm{"se", disk};
  StubDirectory dir;
  dir.srm = &srm;
  dir.vol = &disk;
  PlacementLedger ledger{"usatlas", dir};

  const auto res =
      ledger.acquire("SE", Bytes::gb(4), "dc2", {}, Time::zero());
  ASSERT_TRUE(res.leased());
  EXPECT_TRUE(ledger.release(res.lease));
  EXPECT_EQ(srm.reserved_total(), Bytes::zero());
  EXPECT_EQ(disk.used(), Bytes::zero());
  EXPECT_EQ(ledger.released(), 1u);
  // Idempotent: the lease is gone.
  EXPECT_FALSE(ledger.release(res.lease));
}

TEST(PlacementLedger, FullDestinationRejects) {
  srm::DiskVolume disk{"se:/data", Bytes::gb(3)};
  srm::StorageResourceManager srm{"se", disk};
  StubDirectory dir;
  dir.srm = &srm;
  dir.vol = &disk;
  PlacementLedger ledger{"usatlas", dir};

  const auto big =
      ledger.acquire("SE", Bytes::gb(5), "dc2", {}, Time::zero());
  EXPECT_EQ(big.status, AcquireStatus::kDiskFull);
  EXPECT_EQ(ledger.rejected(), 1u);
  EXPECT_EQ(ledger.active(), 0u);
  EXPECT_EQ(srm.reserved_total(), Bytes::zero());
}

TEST(PlacementLedger, ProbeModeWithoutSrm) {
  srm::DiskVolume disk{"host:/tape", Bytes::gb(3)};
  StubDirectory dir;
  dir.vol = &disk;  // no SRM: unmanaged endpoint
  PlacementLedger ledger{"uscms", dir};

  const auto ok =
      ledger.acquire("HOST", Bytes::gb(2), "mop", {}, Time::zero());
  ASSERT_TRUE(ok.leased());
  // Probe mode holds no reservation; it only vetoed a hopeless match.
  EXPECT_EQ(ledger.srm_for(ok.lease), nullptr);
  EXPECT_EQ(ledger.find(ok.lease)->reservation, 0u);
  EXPECT_EQ(disk.used(), Bytes::zero());
  EXPECT_TRUE(ledger.release(ok.lease));

  // A destination already too full is still rejected up front.
  disk.consume_unmanaged(Bytes::gb(2));
  const auto full =
      ledger.acquire("HOST", Bytes::gb(2), "mop", {}, Time::minutes(2));
  EXPECT_EQ(full.status, AcquireStatus::kDiskFull);
  EXPECT_EQ(ledger.rejected(), 1u);
}

TEST(PlacementLedger, UnknownDestinationHasNoStorage) {
  StubDirectory dir;
  PlacementLedger ledger{"ivdgl", dir};
  const auto res =
      ledger.acquire("NOWHERE", Bytes::gb(1), "ex", {}, Time::zero());
  EXPECT_EQ(res.status, AcquireStatus::kNoStorage);
  EXPECT_EQ(res.lease, 0u);
  EXPECT_EQ(ledger.acquired(), 0u);
  EXPECT_EQ(ledger.rejected(), 0u);
}

// --- failover chains -------------------------------------------------------

/// Two SRM-fronted SEs for chain tests: PRIMARY small, FALLBACK roomy.
struct ChainRig {
  srm::DiskVolume d1{"primary:/data", Bytes::gb(1)};
  srm::StorageResourceManager s1{"primary", d1};
  srm::DiskVolume d2{"fallback:/data", Bytes::gb(10)};
  srm::StorageResourceManager s2{"fallback", d2};
  ChainDirectory dir;
  ChainRig() {
    dir.sites["PRIMARY"] = {&s1, &d1};
    dir.sites["FALLBACK"] = {&s2, &d2};
  }
  [[nodiscard]] std::vector<std::string> chain() const {
    return {"PRIMARY", "FALLBACK"};
  }
};

TEST(PlacementChain, FullPrimaryFallsThroughToSecondSe) {
  ChainRig rig;
  PlacementLedger ledger{"uscms", rig.dir};
  const auto res =
      ledger.acquire(rig.chain(), Bytes::gb(2), "mop", {"out"}, Time::zero());
  ASSERT_TRUE(res.leased());
  EXPECT_EQ(res.site, "FALLBACK");
  EXPECT_EQ(res.hops, 1);
  ASSERT_EQ(res.refused_sites.size(), 1u);
  EXPECT_EQ(res.refused_sites[0], "PRIMARY");
  EXPECT_EQ(ledger.fallthroughs(), 1u);
  const StageOutLease* l = ledger.find(res.lease);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->dest_site, "FALLBACK");
  EXPECT_EQ(l->primary_site, "PRIMARY");
  EXPECT_EQ(l->hops, 1);
  // The reservation lives at the SE that accepted, not the primary.
  EXPECT_EQ(rig.s1.reserved_total(), Bytes::zero());
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::gb(2));
  // Consume converts at the resolved SE.
  EXPECT_TRUE(ledger.consume(res.lease));
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::zero());
  EXPECT_EQ(rig.d2.used(), Bytes::gb(2));
  EXPECT_EQ(rig.d1.used(), Bytes::zero());
}

TEST(PlacementChain, WholeChainFullRejectsAsDiskFull) {
  ChainRig rig;
  PlacementLedger ledger{"uscms", rig.dir};
  // 20 GB fits neither the 1 GB primary nor the 10 GB fallback.
  const auto res =
      ledger.acquire(rig.chain(), Bytes::gb(20), "mop", {}, Time::zero());
  EXPECT_EQ(res.status, AcquireStatus::kDiskFull);
  EXPECT_EQ(res.hops, 1);
  EXPECT_EQ(res.refused_sites.size(), 2u);
  EXPECT_EQ(ledger.rejected(), 1u);
  EXPECT_EQ(ledger.active(), 0u);
  EXPECT_EQ(rig.s1.reserved_total(), Bytes::zero());
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::zero());
}

TEST(PlacementChain, QuarantinedPrimarySkippedByAdmissibilityFilter) {
  ChainRig rig;
  PlacementLedger ledger{"uscms", rig.dir};
  ledger.set_admissibility(
      [](const std::string& site) { return site != "PRIMARY"; });
  // PRIMARY has room for 0.5 GB, but the filter (the health monitor's
  // quarantine in production) vetoes it: the lease lands at FALLBACK.
  const auto res = ledger.acquire(rig.chain(), Bytes::mb(512), "mop", {},
                                  Time::zero());
  ASSERT_TRUE(res.leased());
  EXPECT_EQ(res.site, "FALLBACK");
  EXPECT_EQ(res.hops, 1);
  // A quarantine veto is not a storage refusal: no health signal.
  EXPECT_TRUE(res.refused_sites.empty());
  EXPECT_EQ(rig.s1.reserved_total(), Bytes::zero());
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::mb(512));
}

TEST(PlacementChain, EveryEntryQuarantinedRejects) {
  ChainRig rig;
  PlacementLedger ledger{"uscms", rig.dir};
  ledger.set_admissibility([](const std::string&) { return false; });
  const auto res =
      ledger.acquire(rig.chain(), Bytes::mb(1), "mop", {}, Time::zero());
  EXPECT_EQ(res.status, AcquireStatus::kDiskFull);
  EXPECT_EQ(ledger.rejected(), 1u);
}

TEST(PlacementChain, AllUnknownChainStaysNoStorage) {
  StubDirectory dir;  // knows no sites at all
  PlacementLedger ledger{"ivdgl", dir};
  const auto res = ledger.acquire(std::vector<std::string>{"A", "B"},
                                  Bytes::gb(1), "ex", {}, Time::zero());
  EXPECT_EQ(res.status, AcquireStatus::kNoStorage);
  EXPECT_EQ(ledger.rejected(), 0u);
}

TEST(PlacementChain, ReleaseExactlyOnceOnFallthroughLease) {
  ChainRig rig;
  PlacementLedger ledger{"uscms", rig.dir};
  const auto res =
      ledger.acquire(rig.chain(), Bytes::gb(2), "mop", {}, Time::zero());
  ASSERT_TRUE(res.leased());
  ASSERT_EQ(res.site, "FALLBACK");
  EXPECT_TRUE(ledger.release(res.lease));
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::zero());
  EXPECT_EQ(rig.d2.used(), Bytes::zero());
  EXPECT_EQ(ledger.released(), 1u);
  // Second release and late consume are both dead: the lease is gone.
  EXPECT_FALSE(ledger.release(res.lease));
  EXPECT_FALSE(ledger.consume(res.lease));
  EXPECT_EQ(ledger.released(), 1u);
  EXPECT_EQ(rig.s2.reserved_total(), Bytes::zero());
}

/// One execution site plus an SRM-fronted archive SE with a small disk,
/// brokered: the fabric every lease-lifecycle scenario runs against.
class PlacementFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  vo::VomsProxy proxy;
  int serial = 0;
  std::optional<workflow::DagRunStats> stats;

  void SetUp() override { setup({}); }

  void setup(broker::BrokerConfig cfg) {
    grid.add_vo("usatlas");
    grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth, cfg);
    pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                    Time::minutes(5));
    core::SiteConfig a;
    a.name = "ALPHA";
    a.owner_vo = "usatlas";
    a.cpus = 16;
    a.policy.max_walltime = Time::hours(48);
    a.policy.dedicated = true;
    core::SiteConfig se = a;
    se.name = "ARCHIVE";
    se.cpus = 2;
    se.disk = Bytes::gb(3);  // a tight Tier1 SE
    se.deploy_srm = true;
    grid.add_site(a, /*reliability=*/1000.0);
    grid.add_site(se, /*reliability=*/1000.0);
    // The application runs only at ALPHA; ARCHIVE is storage-only.
    grid.site("ALPHA")->install_application(grid.igoc().pacman_cache(),
                                            "app");
    const vo::Certificate cert =
        grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy = *grid.make_proxy(cert, "usatlas", Time::hours(400));
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    grid.site("ALPHA")->refresh_gridmap(servers);
    grid.site("ARCHIVE")->refresh_gridmap(servers);
    for (const char* site : {"ALPHA", "ARCHIVE"}) {
      grid.site(site)->gatekeeper().set_submission_flake_rate(0.0);
      grid.site(site)->gatekeeper().set_environment_error_rate(0.0);
    }
    grid.start_operations();
    sim.run_until(Time::minutes(1));
  }

  /// Single-derivation workflow archiving one ~1 GB output to ARCHIVE,
  /// optionally with failover SEs behind it.
  std::optional<workflow::ConcreteDag> plan_one(
      std::vector<std::string> fallbacks = {}) {
    workflow::VirtualDataCatalog vdc;
    vdc.add_transformation({"tf", "1", "app"});
    workflow::Derivation d;
    d.id = "job" + std::to_string(serial);
    d.transformation = "tf";
    d.outputs = {"out" + std::to_string(serial)};
    ++serial;
    d.runtime = Time::hours(1);
    d.output_size = Bytes::gb(1);
    d.scratch = Bytes::gb(1);
    vdc.add_derivation(d);
    const auto dag = vdc.request(d.outputs);
    workflow::PegasusPlanner planner{grid.igoc().top_giis(),
                                     *grid.rls("usatlas")};
    planner.set_broker(grid.broker("usatlas"));
    workflow::PlannerConfig cfg;
    cfg.vo = "usatlas";
    cfg.archive_site = "ARCHIVE";
    cfg.archive_fallbacks = std::move(fallbacks);
    util::Rng rng{9};
    return planner.plan(*dag, cfg, rng, sim.now());
  }

  /// Plans and launches one workflow; the result lands in `stats`.
  void run_one(std::vector<std::string> fallbacks = {}) {
    auto plan = plan_one(std::move(fallbacks));
    ASSERT_TRUE(plan.has_value());
    grid.dagman("usatlas").run(std::move(*plan), proxy,
                               [this](const workflow::DagRunStats& s) {
                                 stats = s;
                               });
  }

  [[nodiscard]] srm::StorageResourceManager& archive_srm() {
    return *grid.site("ARCHIVE")->storage_element();
  }
};

TEST_F(PlacementFixture, LeaseConsumedOnSuccessAndOutputRegistered) {
  auto plan = plan_one();
  ASSERT_TRUE(plan.has_value());
  // The intent rides the compute node; no stage-out/register nodes.
  EXPECT_EQ(plan->count(workflow::NodeType::kStageOut), 0u);
  EXPECT_EQ(plan->count(workflow::NodeType::kRegister), 0u);

  grid.dagman("usatlas").run(std::move(*plan), proxy,
                             [this](const workflow::DagRunStats& s) {
                               stats = s;
                             });
  sim.run_until(sim.now() + Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);

  PlacementLedger* ledger = grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->acquired(), 1u);
  EXPECT_EQ(ledger->consumed(), 1u);
  EXPECT_EQ(ledger->active(), 0u);
  // The reservation drained into a durable allocation at the SE.
  EXPECT_EQ(archive_srm().reserved_total(), Bytes::zero());
  EXPECT_GE(grid.site("ARCHIVE")->disk().used(), Bytes::gb(1));
  // DAGMan executed the registration intent.
  EXPECT_FALSE(grid.rls("usatlas")->locate("out0", sim.now()).empty());
  // The broker counted the match.
  EXPECT_GT(grid.broker("usatlas")->matches(), 0u);
}

TEST_F(PlacementFixture, LeasesReleasedWhenSubmissionsFail) {
  // Every execution site dead: the broker re-matches until rebinds
  // exhaust.  Each attempt's lease must come back.
  grid.site("ALPHA")->gatekeeper().set_available(false);
  run_one();
  sim.run_until(sim.now() + Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
  PlacementLedger* ledger = grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(ledger->acquired(), 0u);
  EXPECT_EQ(ledger->released(), ledger->acquired());
  EXPECT_EQ(ledger->consumed(), 0u);
  EXPECT_EQ(ledger->active(), 0u);
  // The drained-scenario invariant: no reserved byte leaks.
  EXPECT_EQ(archive_srm().reserved_total(), Bytes::zero());
  EXPECT_EQ(grid.site("ARCHIVE")->disk().used(), Bytes::zero());
}

TEST_F(PlacementFixture, FullArchiveHoldsMatchUntilSpaceFrees) {
  // Fill the 3 GB archive so a 1 GB lease cannot be reserved, then free
  // it an hour in: the job waits in the broker and then completes.
  srm::DiskVolume& disk = grid.site("ARCHIVE")->disk();
  disk.consume_unmanaged(Bytes::mb(2500));
  sim.schedule_in(Time::hours(1), [&] { disk.cleanup(Bytes::mb(2500)); });

  run_one();
  sim.run_until(sim.now() + Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  broker::ResourceBroker* b = grid.broker("usatlas");
  PlacementLedger* ledger = grid.placement("usatlas");
  EXPECT_GT(b->storage_holds(), 0u);
  EXPECT_GT(ledger->rejected(), 0u);
  EXPECT_EQ(ledger->consumed(), 1u);
  EXPECT_EQ(ledger->active(), 0u);
  EXPECT_EQ(archive_srm().reserved_total(), Bytes::zero());
  EXPECT_GE(disk.used(), Bytes::gb(1));
}

/// Same fabric with a short broker max-hold, for the permanent-full case.
class ShortHoldPlacementFixture : public PlacementFixture {
 protected:
  void SetUp() override {
    broker::BrokerConfig cfg;
    cfg.hold.deadline = Time::hours(2);
    setup(cfg);
  }
};

/// PlacementFixture plus a second, roomier archive SE for failover-chain
/// integration tests.
class ChainPlacementFixture : public PlacementFixture {
 protected:
  void SetUp() override { setup_chain({}); }

  void setup_chain(broker::BrokerConfig cfg) {
    setup(cfg);
    core::SiteConfig se2;
    se2.name = "ARCHIVE2";
    se2.owner_vo = "usatlas";
    se2.cpus = 2;
    se2.disk = Bytes::gb(10);
    se2.deploy_srm = true;
    se2.policy.max_walltime = Time::hours(48);
    se2.policy.dedicated = true;
    grid.add_site(se2, /*reliability=*/1000.0);
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    grid.site("ARCHIVE2")->refresh_gridmap(servers);
    grid.site("ARCHIVE2")->gatekeeper().set_submission_flake_rate(0.0);
    grid.site("ARCHIVE2")->gatekeeper().set_environment_error_rate(0.0);
    sim.run_until(sim.now() + Time::minutes(1));
  }
};

TEST_F(ChainPlacementFixture, FullPrimaryArchivesAtFallbackSe) {
  // ARCHIVE is full forever; the chain resolves the lease at ARCHIVE2
  // and the workflow completes with zero stage-out failures.
  grid.site("ARCHIVE")->disk().consume_unmanaged(Bytes::gb(3));
  run_one({"ARCHIVE2"});
  sim.run_until(sim.now() + Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);

  PlacementLedger* ledger = grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->consumed(), 1u);
  EXPECT_GE(ledger->fallthroughs(), 1u);
  // Every lease passed the full primary: one hop per acquire, counted
  // once, in the ledger.
  EXPECT_EQ(ledger->fallthroughs(), ledger->acquired());
  EXPECT_EQ(ledger->active(), 0u);
  // The bytes landed at the fallback; the primary holds only its fill.
  EXPECT_GE(grid.site("ARCHIVE2")->disk().used(), Bytes::gb(1));
  EXPECT_EQ(grid.site("ARCHIVE")->disk().used(), Bytes::gb(3));
  EXPECT_EQ(grid.site("ARCHIVE2")->storage_element()->reserved_total(),
            Bytes::zero());
  // RLS registration followed the SE that actually archived the output.
  const auto locs = grid.rls("usatlas")->locate("out0", sim.now());
  ASSERT_FALSE(locs.empty());
  bool at_fallback = false;
  for (const auto& [site, replica] : locs) {
    if (site == "ARCHIVE2" ||
        replica.pfn.find("ARCHIVE2") != std::string::npos) {
      at_fallback = true;
    }
  }
  EXPECT_TRUE(at_fallback);
}

/// Chain fabric with a short broker max-hold, for whole-chain-full cases.
class ShortHoldChainFixture : public ChainPlacementFixture {
 protected:
  void SetUp() override {
    broker::BrokerConfig cfg;
    cfg.hold.deadline = Time::hours(2);
    setup_chain(cfg);
  }
};

TEST_F(ShortHoldChainFixture, WholeChainFullHoldsAtMatchTime) {
  // Both SEs full forever: the refusal surfaces as a match-time hold
  // and a disk-full classification -- never a wasted execution.
  grid.site("ARCHIVE")->disk().consume_unmanaged(Bytes::gb(3));
  grid.site("ARCHIVE2")->disk().consume_unmanaged(Bytes::gb(10));
  run_one({"ARCHIVE2"});
  sim.run_until(sim.now() + Time::days(3));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
  const workflow::NodeResult& r = stats->node_results[0];
  EXPECT_EQ(r.gram_status, gram::GramStatus::kDiskFull);
  EXPECT_EQ(r.failure_class, "disk-full");
  PlacementLedger* ledger = grid.placement("usatlas");
  EXPECT_GT(ledger->rejected(), 0u);
  EXPECT_EQ(ledger->active(), 0u);
  EXPECT_EQ(grid.site("ALPHA")->gatekeeper().submissions(), 0u);
}

TEST_F(ShortHoldChainFixture, FallbackFreesBeforeHoldExpires) {
  // Primary full forever, fallback full for one hour: the held match
  // re-acquires down the chain once ARCHIVE2 drains.
  grid.site("ARCHIVE")->disk().consume_unmanaged(Bytes::gb(3));
  srm::DiskVolume& d2 = grid.site("ARCHIVE2")->disk();
  d2.consume_unmanaged(Bytes::mb(9800));
  sim.schedule_in(Time::hours(1), [&] { d2.cleanup(Bytes::mb(9800)); });
  run_one({"ARCHIVE2"});
  sim.run_until(sim.now() + Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  PlacementLedger* ledger = grid.placement("usatlas");
  EXPECT_GT(ledger->rejected(), 0u);  // the hold happened
  EXPECT_EQ(ledger->consumed(), 1u);  // then the chain resolved
  EXPECT_GE(d2.used(), Bytes::gb(1));
}

TEST_F(ShortHoldPlacementFixture, FullArchiveForeverFailsAsDiskFull) {
  grid.site("ARCHIVE")->disk().consume_unmanaged(Bytes::gb(3));
  run_one();
  sim.run_until(sim.now() + Time::days(3));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
  // The disk-full class surfaced at match time, attributed correctly.
  const workflow::NodeResult& r = stats->node_results[0];
  EXPECT_EQ(r.gram_status, gram::GramStatus::kDiskFull);
  EXPECT_EQ(r.failure_class, "disk-full");
  PlacementLedger* ledger = grid.placement("usatlas");
  EXPECT_GT(ledger->rejected(), 0u);
  EXPECT_EQ(ledger->active(), 0u);
  EXPECT_EQ(archive_srm().reserved_total(), Bytes::zero());
  // No compute cycles were wasted on a doomed stage-out.
  EXPECT_EQ(grid.site("ALPHA")->gatekeeper().submissions(), 0u);
}

}  // namespace
}  // namespace grid3::placement
