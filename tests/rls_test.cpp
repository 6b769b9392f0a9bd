// Unit tests for the replica location service: LRC, RLI soft-state,
// staleness windows.
#include <gtest/gtest.h>

#include "rls/rls.h"

namespace grid3::rls {
namespace {

TEST(Lrc, AddLookup) {
  LocalReplicaCatalog lrc{"BNL"};
  EXPECT_EQ(lrc.version(), 0u);
  lrc.add("lfn1", {"gsiftp://BNL/lfn1", Bytes::gb(2), Time::zero()});
  lrc.add("lfn1", {"gsiftp://BNL/copy2", Bytes::gb(2), Time::zero()});
  EXPECT_TRUE(lrc.has("lfn1"));
  EXPECT_EQ(lrc.lookup("lfn1").size(), 2u);
  EXPECT_EQ(lrc.replica_count(), 2u);
  EXPECT_NE(lrc.version(), 0u);
  EXPECT_FALSE(lrc.has("lfn2"));
  EXPECT_TRUE(lrc.lookup("lfn2").empty());
}

TEST(Lrc, DuplicatePfnUpdatesInPlace) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  lrc.add("lfn", {"pfn", Bytes::gb(3), Time::seconds(5)});
  const auto replicas = lrc.lookup("lfn");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0].size, Bytes::gb(3));
}

TEST(Lrc, DownCatalogAnswersNothing) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  lrc.set_available(false);
  EXPECT_FALSE(lrc.has("lfn"));
  EXPECT_TRUE(lrc.lookup("lfn").empty());
}

TEST(Rli, SoftStateExpiry) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};  // 30-minute soft-state TTL
  rli.update_from(lrc, Time::zero());
  EXPECT_EQ(rli.sites_with("lfn", Time::minutes(10)).size(), 1u);
  // Without refresh the entry lapses.
  EXPECT_TRUE(rli.sites_with("lfn", Time::hours(1)).empty());
  rli.update_from(lrc, Time::hours(1));
  EXPECT_EQ(rli.sites_with("lfn", Time::hours(1)).size(), 1u);
}

TEST(Rls, RegisterAndLocateAcrossSites) {
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "dataset1",
                       {"gsiftp://BNL/d1", Bytes::gb(2), Time::zero()},
                       Time::zero());
  rls.register_replica("UC_ATLAS", "dataset1",
                       {"gsiftp://UC/d1", Bytes::gb(2), Time::zero()},
                       Time::zero());
  const auto located = rls.locate("dataset1", Time::minutes(1));
  EXPECT_EQ(located.size(), 2u);
  EXPECT_EQ(rls.lrc_count(), 2u);
  EXPECT_TRUE(rls.locate("missing", Time::zero()).empty());
}

TEST(Rls, StaleIndexHidesUnrefreshedSites) {
  ReplicaLocationService rls{"uscms"};
  rls.register_replica("FNAL", "pileup",
                       {"gsiftp://FNAL/p", Bytes::gb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.locate("pileup", Time::minutes(10)).size(), 1u);
  EXPECT_TRUE(rls.locate("pileup", Time::hours(2)).empty());
  rls.refresh_all(Time::hours(2));
  EXPECT_EQ(rls.locate("pileup", Time::hours(2)).size(), 1u);
}

TEST(Rls, DownLrcSkippedOnRefresh) {
  ReplicaLocationService rls{"sdss"};
  rls.register_replica("JHU", "seg", {"pfn", Bytes::mb(500), Time::zero()},
                       Time::zero());
  rls.lrc_for("JHU").set_available(false);
  rls.refresh_all(Time::hours(1));
  // Refresh skipped the down LRC, so the RLI entry ages out...
  EXPECT_TRUE(rls.locate("seg", Time::hours(2)).empty());
  // ...until the catalog recovers and a later refresh re-advertises it.
  rls.lrc_for("JHU").set_available(true);
  rls.refresh_all(Time::hours(2));
  EXPECT_EQ(rls.locate("seg", Time::hours(2)).size(), 1u);
}

TEST(Rli, DigestLagServesPreUpdateSetThenConverges) {
  // Soft-state staleness: a replica added straight to an LRC is
  // invisible to the index until that LRC's next digest push.  Queries
  // in the lag window return the pre-update set -- never an error --
  // and converge after the push.
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "aod",
                       {"gsiftp://BNL/aod", Bytes::gb(1), Time::zero()},
                       Time::zero());
  rls.lrc_for("UC").add("aod",
                        {"gsiftp://UC/aod", Bytes::gb(1), Time::minutes(5)});
  auto lagged = rls.locate("aod", Time::minutes(6));
  ASSERT_EQ(lagged.size(), 1u);
  EXPECT_EQ(lagged[0].first, "BNL");
  EXPECT_FALSE(rls.has_replica_at("aod", "UC", Time::minutes(6)));
  rls.refresh_all(Time::minutes(20));
  auto converged = rls.locate("aod", Time::minutes(21));
  ASSERT_EQ(converged.size(), 2u);
  EXPECT_EQ(converged[0].first, "BNL");
  EXPECT_EQ(converged[1].first, "UC");
  EXPECT_TRUE(rls.has_replica_at("aod", "UC", Time::minutes(21)));
}

TEST(Rls, RliOutageFallsBackToDirectLrcScan) {
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "esd",
                       {"gsiftp://BNL/esd", Bytes::gb(2), Time::zero()},
                       Time::zero());
  rls.rli().set_available(false);
  // The index answers nothing itself...
  EXPECT_TRUE(rls.rli().sites_with("esd", Time::minutes(1)).empty());
  // ...but the facade degrades to the authoritative catalogs.
  auto located = rls.locate("esd", Time::minutes(1));
  ASSERT_EQ(located.size(), 1u);
  EXPECT_EQ(located[0].first, "BNL");
  EXPECT_TRUE(rls.has_replica_at("esd", "BNL", Time::minutes(1)));
  EXPECT_FALSE(rls.has_replica_at("esd", "UC", Time::minutes(1)));
}

TEST(Rls, JournalHoldsRegistrationsAcrossAnOutage) {
  ReplicaLocationService rls{"usatlas"};
  rls.set_available(false);
  rls.register_replica("BNL", "evgen",
                       {"gsiftp://BNL/evgen", Bytes::gb(1), Time::zero()},
                       Time::zero());
  rls.register_replica("UC", "evgen",
                       {"gsiftp://UC/evgen", Bytes::gb(1), Time::zero()},
                       Time::zero());
  // Intent logged, nothing applied, nothing lost.
  EXPECT_EQ(rls.journal().size(), 2u);
  EXPECT_EQ(rls.journal().pending(), 2u);
  EXPECT_EQ(rls.lost_registrations(), 0u);
  EXPECT_FALSE(rls.lrc_for("BNL").has("evgen"));
  // Recovery: the replay applies both, exactly once, and a second
  // replay finds nothing to do.
  rls.set_available(true);
  EXPECT_EQ(rls.replay(Time::minutes(30)), 2u);
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_EQ(rls.journal().replayed(), 2u);
  EXPECT_EQ(rls.replay(Time::minutes(31)), 0u);
  EXPECT_EQ(rls.journal().replayed(), 2u);
  EXPECT_EQ(rls.locate("evgen", Time::minutes(31)).size(), 2u);
}

TEST(Rls, ReplaySkipsEntriesWhoseLrcIsStillDown) {
  ReplicaLocationService rls{"usatlas"};
  rls.lrc_for("IU").set_available(false);
  rls.set_available(false);
  rls.register_replica("BNL", "f1", {"p1", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.register_replica("IU", "f2", {"p2", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(true);
  // Only the reachable catalog drains; the IU entry stays pending.
  EXPECT_EQ(rls.replay(Time::minutes(5)), 1u);
  EXPECT_EQ(rls.journal().pending(), 1u);
  rls.lrc_for("IU").set_available(true);
  EXPECT_EQ(rls.replay(Time::minutes(10)), 1u);
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_TRUE(rls.lrc_for("IU").has("f2"));
}

TEST(Rls, DownLrcJournalsEvenWithTheEndpointUp) {
  // The endpoint being reachable does not help when the target catalog
  // itself is down: the write-ahead entry still protects the intent.
  ReplicaLocationService rls{"usatlas"};
  rls.lrc_for("BNL").set_available(false);
  rls.register_replica("BNL", "hits", {"p", Bytes::mb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.journal().pending(), 1u);
  rls.lrc_for("BNL").set_available(true);
  // The periodic soft-state refresh doubles as the replay trigger.
  rls.refresh_all(Time::minutes(20));
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_EQ(rls.locate("hits", Time::minutes(21)).size(), 1u);
}

TEST(Rls, NaiveModeDropsAndCountsLostRegistrations) {
  ReplicaLocationService rls{"usatlas"};
  rls.set_journal_enabled(false);
  rls.set_available(false);
  rls.register_replica("BNL", "raw", {"p", Bytes::gb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.lost_registrations(), 1u);
  EXPECT_EQ(rls.journal().size(), 0u);
  rls.set_available(true);
  rls.replay(Time::minutes(5));
  rls.refresh_all(Time::minutes(20));
  EXPECT_TRUE(rls.locate("raw", Time::minutes(21)).empty());
  // Up-path registrations still work without the journal.
  rls.register_replica("BNL", "raw2", {"p2", Bytes::gb(1), Time::zero()},
                       Time::minutes(25));
  EXPECT_EQ(rls.locate("raw2", Time::minutes(26)).size(), 1u);
}

TEST(Rls, JournalAuditSeesEveryTransitionExactlyOnce) {
  ReplicaLocationService rls{"usatlas"};
  std::vector<std::string> events;
  rls.journal().set_audit([&](const JournalEntry& e, const char* event) {
    events.push_back(std::string{event} + ":" + e.lfn);
  });
  rls.register_replica("BNL", "a", {"pa", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(false);
  rls.register_replica("BNL", "b", {"pb", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(true);
  rls.replay(Time::minutes(1));
  const std::vector<std::string> want{"log:a", "apply:a", "log:b", "replay:b"};
  EXPECT_EQ(events, want);
}

}  // namespace
}  // namespace grid3::rls
