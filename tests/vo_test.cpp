// Unit tests for VO management: CA, VOMS, proxies, grid-map files.
#include <gtest/gtest.h>

#include "vo/gridmap.h"
#include "vo/voms.h"

namespace grid3::vo {
namespace {

TEST(CertificateAuthority, IssueAndVerify) {
  CertificateAuthority ca{"TestCA"};
  const auto cert = ca.issue("/CN=alice", Time::zero(), Time::days(365));
  EXPECT_TRUE(ca.verify(cert, Time::days(100)));
  EXPECT_FALSE(ca.verify(cert, Time::days(400)));  // expired
  EXPECT_EQ(cert.issuer, "TestCA");
  EXPECT_EQ(ca.issued_count(), 1u);
}

TEST(CertificateAuthority, ForeignIssuerRejected) {
  CertificateAuthority ca{"TestCA"};
  CertificateAuthority other{"OtherCA"};
  const auto cert = other.issue("/CN=bob", Time::zero(), Time::days(365));
  EXPECT_FALSE(ca.verify(cert, Time::days(1)));
}

TEST(VomsServer, MembershipLifecycle) {
  VomsServer voms{"usatlas"};
  voms.add_member("/CN=alice", Role::kUser);
  voms.add_member("/CN=bob", Role::kAppAdmin);
  EXPECT_TRUE(voms.is_member("/CN=alice"));
  EXPECT_EQ(voms.member_count(), 2u);
  EXPECT_EQ(voms.role_of("/CN=bob"), Role::kAppAdmin);
  EXPECT_EQ(voms.count_role(Role::kAppAdmin), 1u);
  EXPECT_FALSE(voms.is_member("/CN=carol"));
  // Re-adding a member changes the role, not the count.
  voms.add_member("/CN=alice", Role::kVoAdmin);
  EXPECT_EQ(voms.member_count(), 2u);
  EXPECT_EQ(voms.role_of("/CN=alice"), Role::kVoAdmin);
}

TEST(VomsServer, MembersDeterministicOrder) {
  VomsServer voms{"sdss"};
  voms.add_member("/CN=c", Role::kUser);
  voms.add_member("/CN=a", Role::kUser);
  voms.add_member("/CN=b", Role::kAppAdmin);
  const std::vector<std::string>& dns = voms.member_dns();
  ASSERT_EQ(dns.size(), 3u);
  EXPECT_EQ(dns[0], "/CN=c");  // insertion order
  EXPECT_EQ(dns[1], "/CN=a");
  EXPECT_EQ(voms.role_of(dns[2]), Role::kAppAdmin);
}

TEST(Proxy, IssueRequiresMembershipAndAvailability) {
  CertificateAuthority ca{"TestCA"};
  VomsServer voms{"ligo"};
  const auto alice = ca.issue("/CN=alice", Time::zero(), Time::days(365));
  EXPECT_FALSE(issue_proxy(voms, alice, Time::zero()).has_value());
  voms.add_member("/CN=alice", Role::kUser);
  const auto proxy = issue_proxy(voms, alice, Time::zero());
  ASSERT_TRUE(proxy.has_value());
  EXPECT_EQ(proxy->vo, "ligo");
  EXPECT_TRUE(proxy->valid(Time::hours(1)));
  EXPECT_FALSE(proxy->valid(Time::hours(13)));  // 12 h default lifetime
  voms.set_available(false);
  EXPECT_FALSE(issue_proxy(voms, alice, Time::zero()).has_value());
}

TEST(GridMap, RegenerationMapsMembersToGroupAccounts) {
  VomsServer atlas{"usatlas"};
  atlas.add_member("/CN=alice", Role::kUser);
  VomsServer cms{"uscms"};
  cms.add_member("/CN=bob", Role::kUser);

  GridMapFile map;
  map.support_vo("usatlas", {"usatlas1", "usatlas"});
  map.support_vo("uscms", {"uscms1", "uscms"});
  EXPECT_EQ(map.regenerate({&atlas, &cms}), 2u);

  const auto acct = map.map("/CN=alice");
  ASSERT_TRUE(acct.has_value());
  EXPECT_EQ(acct->unix_name, "usatlas1");
  EXPECT_EQ(acct->vo, "usatlas");
  EXPECT_FALSE(map.map("/CN=mallory").has_value());
}

TEST(GridMap, UnsupportedVoIgnored) {
  VomsServer btev{"btev"};
  btev.add_member("/CN=carol", Role::kUser);
  GridMapFile map;
  map.support_vo("usatlas", {"usatlas1", "usatlas"});
  map.regenerate({&btev});
  EXPECT_FALSE(map.map("/CN=carol").has_value());
  EXPECT_FALSE(map.supports_vo("btev"));
}

TEST(GridMap, StaleSnapshotMissesNewMembers) {
  // The operational failure mode: users added after the last refresh are
  // rejected until the site regenerates.
  VomsServer voms{"sdss"};
  voms.add_member("/CN=old", Role::kUser);
  GridMapFile map;
  map.support_vo("sdss", {"sdss1", "sdss"});
  map.regenerate({&voms});
  voms.add_member("/CN=new", Role::kUser);
  EXPECT_TRUE(map.map("/CN=old").has_value());
  EXPECT_FALSE(map.map("/CN=new").has_value());
  map.regenerate({&voms});
  EXPECT_TRUE(map.map("/CN=new").has_value());
}

TEST(GridMap, DownVomsKeepsPreviousEntries) {
  VomsServer voms{"ivdgl"};
  voms.add_member("/CN=dave", Role::kUser);
  GridMapFile map;
  map.support_vo("ivdgl", {"ivdgl1", "ivdgl"});
  map.regenerate({&voms});
  voms.set_available(false);
  voms.add_member("/CN=erin", Role::kUser);
  map.regenerate({&voms});
  // Old entry survives; new member not picked up while the server is down.
  EXPECT_TRUE(map.map("/CN=dave").has_value());
  EXPECT_FALSE(map.map("/CN=erin").has_value());
}

TEST(GridMap, SupportVoForcesTheNextRebuild) {
  VomsServer atlas{"usatlas"};
  atlas.add_member("/CN=alice", Role::kUser);
  VomsServer cms{"uscms"};
  cms.add_member("/CN=bob", Role::kUser);
  GridMapFile map;
  map.support_vo("usatlas", {"usatlas1", "usatlas"});
  EXPECT_EQ(map.regenerate({&atlas, &cms}), 1u);
  EXPECT_EQ(map.regenerate({&atlas, &cms}), 1u);  // nothing changed
  // No server changed, but the site now supports uscms.
  map.support_vo("uscms", {"uscms1", "uscms"});
  EXPECT_EQ(map.regenerate({&atlas, &cms}), 2u);
  const auto acct = map.map("/CN=bob");
  ASSERT_TRUE(acct.has_value());
  EXPECT_EQ(acct->unix_name, "uscms1");
}

TEST(GridMap, ServerAddedToTheListIsPickedUp) {
  VomsServer atlas{"usatlas"};
  atlas.add_member("/CN=alice", Role::kUser);
  VomsServer cms{"uscms"};
  cms.add_member("/CN=bob", Role::kUser);
  GridMapFile map;
  map.support_vo("usatlas", {"usatlas1", "usatlas"});
  map.support_vo("uscms", {"uscms1", "uscms"});
  EXPECT_EQ(map.regenerate({&atlas}), 1u);
  EXPECT_FALSE(map.map("/CN=bob").has_value());
  EXPECT_EQ(map.regenerate({&atlas, &cms}), 2u);
  EXPECT_TRUE(map.map("/CN=bob").has_value());
}

TEST(GridMap, VomsBackUpPicksUpMembersAddedWhileDown) {
  VomsServer voms{"ivdgl"};
  voms.add_member("/CN=dave", Role::kUser);
  GridMapFile map;
  map.support_vo("ivdgl", {"ivdgl1", "ivdgl"});
  map.regenerate({&voms});
  voms.set_available(false);
  voms.add_member("/CN=erin", Role::kUser);
  map.regenerate({&voms});
  EXPECT_FALSE(map.map("/CN=erin").has_value());
  // Only the availability changes before the next refresh.
  voms.set_available(true);
  EXPECT_EQ(map.regenerate({&voms}), 2u);
  EXPECT_TRUE(map.map("/CN=erin").has_value());
}

TEST(VomsServer, VersionMovesOnEveryChange) {
  VomsServer voms{"sdss"};
  VomsServer other{"sdss"};
  EXPECT_NE(voms.version(), other.version());
  auto last = voms.version();
  const auto moved = [&] {
    const bool changed = voms.version() != last;
    last = voms.version();
    return changed;
  };
  voms.add_member("/CN=a", Role::kUser);
  EXPECT_TRUE(moved());
  voms.set_available(false);
  EXPECT_TRUE(moved());
  voms.set_available(false);  // no flip
  EXPECT_FALSE(moved());
  voms.add_member("/CN=a", Role::kAppAdmin);  // a role change
  EXPECT_TRUE(moved());
}

}  // namespace
}  // namespace grid3::vo
