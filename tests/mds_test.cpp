// Unit tests for the MDS information service: GRIS, GIIS hierarchy,
// GLUE schema, cache staleness.
#include <gtest/gtest.h>

#include "mds/giis.h"
#include "mds/gris.h"
#include "mds/schema.h"

namespace grid3::mds {
namespace {

TEST(Schema, AttrValueRendering) {
  EXPECT_EQ(to_string(AttrValue{std::string{"x"}}), "x");
  EXPECT_EQ(to_string(AttrValue{std::int64_t{42}}), "42");
  EXPECT_EQ(to_string(AttrValue{true}), "true");
  EXPECT_EQ(to_string(AttrValue{false}), "false");
}

TEST(Schema, AppAttributeNaming) {
  EXPECT_EQ(app_attribute("gce-atlas"), "Grid3App-gce-atlas");
}

TEST(Gris, PublishQueryRetract) {
  Gris gris{"BNL"};
  gris.publish(glue::kTotalCpus, std::int64_t{360}, Time::zero());
  const auto attr = gris.query(glue::kTotalCpus);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(std::get<std::int64_t>(attr->value), 360);
  EXPECT_TRUE(gris.retract(glue::kTotalCpus));
  EXPECT_FALSE(gris.query(glue::kTotalCpus).has_value());
  EXPECT_FALSE(gris.retract(glue::kTotalCpus));
}

TEST(Gris, UpdateOverwritesAndStampsTime) {
  Gris gris{"BNL"};
  gris.publish(glue::kFreeCpus, std::int64_t{10}, Time::seconds(1));
  gris.publish(glue::kFreeCpus, std::int64_t{5}, Time::seconds(2));
  const auto attr = gris.query(glue::kFreeCpus);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(std::get<std::int64_t>(attr->value), 5);
  EXPECT_EQ(attr->updated, Time::seconds(2));
  EXPECT_EQ(gris.attribute_count(), 1u);
}

TEST(Gris, DownServerAnswersNothing) {
  Gris gris{"BNL"};
  gris.publish(glue::kSiteName, std::string{"BNL"}, Time::zero());
  gris.set_available(false);
  EXPECT_FALSE(gris.query(glue::kSiteName).has_value());
}

class GiisTest : public ::testing::Test {
 protected:
  Gris bnl{"BNL"};
  Gris fnal{"FNAL"};
  Giis vo_giis{"usatlas-giis", Time::minutes(10)};
  Giis top{"igoc", Time::minutes(10)};

  void SetUp() override {
    bnl.publish(glue::kTotalCpus, std::int64_t{360}, Time::zero());
    bnl.publish(app_attribute("gce-atlas"), std::string{"1.0"}, Time::zero());
    fnal.publish(glue::kTotalCpus, std::int64_t{400}, Time::zero());
    vo_giis.register_gris(&bnl);
    top.register_child(&vo_giis);
    top.register_gris(&fnal);
  }
};

TEST_F(GiisTest, HierarchicalSiteEnumeration) {
  const auto sites = top.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "BNL");
  EXPECT_EQ(sites[1], "FNAL");
}

TEST_F(GiisTest, LookupThroughChild) {
  const auto snap = top.lookup("BNL", Time::zero());
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->fresh);
  EXPECT_EQ(snap->get_int(glue::kTotalCpus), 360);
}

TEST_F(GiisTest, FindFiltersBySnapshotPredicate) {
  const auto hits = top.find(
      [](const SiteSnapshot& s) {
        return s.get(app_attribute("gce-atlas")).has_value();
      },
      Time::zero());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].site, "BNL");
}

TEST_F(GiisTest, CacheServesStaleWithinGracePeriod) {
  // Prime the cache.
  ASSERT_TRUE(top.lookup("FNAL", Time::zero()).has_value());
  fnal.set_available(false);
  // Within TTL: cached snapshot, still marked fresh.
  auto snap = top.lookup("FNAL", Time::minutes(5));
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->fresh);
  // Past TTL but within grace: stale snapshot served.
  snap = top.lookup("FNAL", Time::minutes(15));
  ASSERT_TRUE(snap.has_value());
  EXPECT_FALSE(snap->fresh);
  // Past grace: the site drops out.
  EXPECT_FALSE(top.lookup("FNAL", Time::minutes(25)).has_value());
}

TEST_F(GiisTest, CacheRefreshesAfterTtl) {
  ASSERT_TRUE(top.lookup("FNAL", Time::zero()).has_value());
  fnal.publish(glue::kTotalCpus, std::int64_t{500}, Time::minutes(1));
  // Within TTL the old value is served.
  EXPECT_EQ(top.lookup("FNAL", Time::minutes(5))->get_int(glue::kTotalCpus),
            400);
  // After TTL the refreshed value appears.
  EXPECT_EQ(top.lookup("FNAL", Time::minutes(11))->get_int(glue::kTotalCpus),
            500);
}

TEST_F(GiisTest, DownIndexAnswersNothing) {
  top.set_available(false);
  EXPECT_FALSE(top.lookup("BNL", Time::zero()).has_value());
  EXPECT_TRUE(top.find([](const SiteSnapshot&) { return true; }, Time::zero())
                  .empty());
}

TEST_F(GiisTest, GrisRecoveryRestoresTheDroppedSite) {
  // The degraded-mode contract end to end: stale (fresh=false) through
  // one grace TTL, gone after, and back -- fresh -- once the GRIS
  // answers again.  No re-registration step is needed; the cache
  // re-pulls on the next lookup.
  ASSERT_TRUE(top.lookup("FNAL", Time::zero()).has_value());
  fnal.set_available(false);
  const auto stale = top.lookup("FNAL", Time::minutes(15));
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(stale->fresh);
  EXPECT_FALSE(top.lookup("FNAL", Time::minutes(25)).has_value());
  fnal.set_available(true);
  fnal.publish(glue::kTotalCpus, std::int64_t{512}, Time::minutes(26));
  const auto back = top.lookup("FNAL", Time::minutes(30));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->fresh);
  EXPECT_EQ(back->get_int(glue::kTotalCpus), 512);
}

TEST_F(GiisTest, DownChildGiisHidesItsSitesImmediately) {
  // The snapshot cache lives where the GRIS is registered, so a VO
  // GIIS outage removes its sites from the top index at once -- no
  // per-site grace applies.  Riding this out is the broker's job (its
  // bounded stale-view freeze), not MDS's.  Recovery is also
  // immediate: the child answers from its own cache again.
  ASSERT_TRUE(top.lookup("BNL", Time::zero()).has_value());
  vo_giis.set_available(false);
  EXPECT_FALSE(top.lookup("BNL", Time::minutes(1)).has_value());
  vo_giis.set_available(true);
  const auto back = top.lookup("BNL", Time::minutes(2));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->fresh);
  EXPECT_EQ(back->get_int(glue::kTotalCpus), 360);
}

TEST_F(GiisTest, DeregisterRemovesSite) {
  top.deregister_gris("FNAL");
  EXPECT_FALSE(top.lookup("FNAL", Time::zero()).has_value());
  const auto sites = top.sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "BNL");
}

TEST_F(GiisTest, HeldSnapshotKeepsItsValuesAcrossRefetch) {
  // Snapshots share the cached attribute map; a refetch replaces the
  // cache's map instead of editing it, so a snapshot already handed out
  // keeps the values it was served with.
  const auto before = top.lookup("FNAL", Time::zero());
  ASSERT_TRUE(before.has_value());
  fnal.publish(glue::kTotalCpus, std::int64_t{500}, Time::minutes(1));
  const auto after = top.lookup("FNAL", Time::minutes(11));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get_int(glue::kTotalCpus), 500);
  EXPECT_EQ(before->get_int(glue::kTotalCpus), 400);
}

TEST(GiisLifetime, ParentForgetsADestroyedChild) {
  Gris bnl{"BNL"};
  Giis top{"igoc", Time::minutes(10)};
  {
    Giis vo{"usatlas-giis", Time::minutes(10)};
    vo.register_gris(&bnl);
    top.register_child(&vo);
    ASSERT_EQ(top.sites().size(), 1u);
  }
  EXPECT_TRUE(top.sites().empty());
  EXPECT_FALSE(top.lookup("BNL", Time::zero()).has_value());
}

TEST(GiisLifetime, ChildOutlivesItsParent) {
  Gris bnl{"BNL"};
  Giis vo{"usatlas-giis", Time::minutes(10)};
  {
    Giis top{"igoc", Time::minutes(10)};
    top.register_child(&vo);
  }
  vo.register_gris(&bnl);  // no parent left to update
  EXPECT_TRUE(vo.lookup("BNL", Time::zero()).has_value());
}

TEST(SiteSnapshot, TypedGetters) {
  AttributeMap attrs;
  attrs.emplace("int", Attribute{std::int64_t{7}, Time::zero()});
  attrs.emplace("dbl", Attribute{3.5, Time::zero()});
  attrs.emplace("str", Attribute{std::string{"hi"}, Time::zero()});
  attrs.emplace("flag", Attribute{true, Time::zero()});
  SiteSnapshot snap;
  EXPECT_FALSE(snap.get("int").has_value());  // no attributes yet
  snap.attrs = std::make_shared<const AttributeMap>(std::move(attrs));
  EXPECT_EQ(snap.get_int("int"), 7);
  EXPECT_EQ(snap.get_int("dbl"), 3);  // double narrows
  EXPECT_EQ(snap.get_string("str"), "hi");
  EXPECT_EQ(snap.get_bool("flag"), true);
  EXPECT_FALSE(snap.get_int("missing").has_value());
  EXPECT_FALSE(snap.get_bool("str").has_value());
}

}  // namespace
}  // namespace grid3::mds
