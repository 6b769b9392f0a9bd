// Unit tests for the MDS information service: GRIS, GIIS hierarchy,
// GLUE schema, cache staleness.
#include <gtest/gtest.h>

#include <utility>

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

TEST(Gris, PublishThenQuery) {
  Gris gris{"BNL"};
  EXPECT_FALSE(gris.query(glue::kTotalCpus).has_value());
  gris.publish(glue::kTotalCpus, std::int64_t{360}, Time::zero());
  const auto attr = gris.query(glue::kTotalCpus);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(std::get<std::int64_t>(attr->value), 360);
  EXPECT_FALSE(gris.query(glue::kFreeCpus).has_value());
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

TEST(Gris, SlotKeyByNameAndByIndexAgree) {
  // The sweep writes slots by index; every other provider by GLUE key.
  // Either way the GRIS serves the same attribute, type and time.
  Gris by_name{"BNL"};
  Gris by_index{"BNL"};
  by_name.publish(glue::kFreeCpus, std::int64_t{12}, Time::seconds(3));
  by_index.publish(DynamicAttr::kFreeCpus, std::int64_t{12}, Time::seconds(3));
  by_name.publish(grid3ext::kSeDrainGbPerHour, 1.5, Time::seconds(4));
  by_index.publish(DynamicAttr::kSeDrainGbPerHour, 1.5, Time::seconds(4));
  by_name.publish(glue::kWaitingJobs, std::string{"n/a"}, Time::seconds(5));
  by_index.publish(DynamicAttr::kWaitingJobs, std::string{"n/a"},
                   Time::seconds(5));
  by_name.publish(glue::kLrmsType, std::string{"pbs"}, Time::seconds(6));
  by_index.publish(glue::kLrmsType, std::string{"pbs"}, Time::seconds(6));
  Giis by_name_index{"a", Time::minutes(10)};
  Giis by_index_index{"b", Time::minutes(10)};
  by_name_index.register_gris(&by_name);
  by_index_index.register_gris(&by_index);
  for (const auto& [gris, giis] :
       {std::pair{&by_name, &by_name_index},
        std::pair{&by_index, &by_index_index}}) {
    EXPECT_EQ(gris->attribute_count(), 4u);
    const auto free = gris->query(glue::kFreeCpus);
    ASSERT_TRUE(free.has_value());
    EXPECT_EQ(std::get<std::int64_t>(free->value), 12);
    EXPECT_EQ(free->updated, Time::seconds(3));
    const auto drain = gris->query(grid3ext::kSeDrainGbPerHour);
    ASSERT_TRUE(drain.has_value());
    EXPECT_EQ(std::get<double>(drain->value), 1.5);
    const auto waiting = gris->query(glue::kWaitingJobs);
    ASSERT_TRUE(waiting.has_value());
    EXPECT_EQ(std::get<std::string>(waiting->value), "n/a");
    EXPECT_EQ(waiting->updated, Time::seconds(5));
    EXPECT_FALSE(gris->query(glue::kRunningJobs).has_value());

    const auto snap = giis->lookup("BNL", Time::minutes(1));
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->get_int(glue::kFreeCpus), 12);
    EXPECT_EQ(snap->get_int(DynamicAttr::kFreeCpus), 12);
    EXPECT_TRUE(snap->get(grid3ext::kSeDrainGbPerHour) == AttrValue{1.5});
    EXPECT_EQ(snap->get_string(glue::kWaitingJobs), "n/a");
    EXPECT_EQ(snap->get_string(glue::kLrmsType), "pbs");
    EXPECT_FALSE(snap->get(glue::kRunningJobs).has_value());
    // Slot keys never reach the shared map.
    EXPECT_EQ(snap->attrs->size(), 1u);
  }

  // A publish by name overwrites the slot a publish by index filled.
  by_index.publish(glue::kFreeCpus, std::int64_t{2}, Time::seconds(7));
  EXPECT_EQ(std::get<std::int64_t>(by_index.query(glue::kFreeCpus)->value), 2);
  EXPECT_EQ(by_index.attribute_count(), 4u);
}

TEST(Gris, EverySlotKeyRoundTrips) {
  for (std::size_t i = 0; i < kDynamicAttrCount; ++i) {
    const auto slot = static_cast<DynamicAttr>(i);
    EXPECT_EQ(dynamic_attr(key_of(slot)), slot) << key_of(slot);
  }
  EXPECT_EQ(key_of(DynamicAttr::kTotalCpus), glue::kTotalCpus);
  EXPECT_EQ(key_of(DynamicAttr::kSeDrainGbPerHour),
            grid3ext::kSeDrainGbPerHour);
  EXPECT_FALSE(dynamic_attr(glue::kMaxWallClockMinutes).has_value());
  EXPECT_FALSE(dynamic_attr(grid3ext::kOutboundConnectivity).has_value());
  EXPECT_FALSE(dynamic_attr(app_attribute("gce-atlas")).has_value());
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

TEST_F(GiisTest, HeldSnapshotKeepsItsValuesAcrossRefetch) {
  // A snapshot holds its slots by value, so one already handed out keeps
  // the values it was served with when a refetch brings new ones.
  const auto before = top.lookup("FNAL", Time::zero());
  ASSERT_TRUE(before.has_value());
  fnal.publish(glue::kTotalCpus, std::int64_t{500}, Time::minutes(1));
  const auto after = top.lookup("FNAL", Time::minutes(11));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get_int(glue::kTotalCpus), 500);
  EXPECT_EQ(before->get_int(glue::kTotalCpus), 400);
}

TEST_F(GiisTest, RefetchSharesTheMapUntilANonSlotPublish) {
  const auto first = top.lookup("FNAL", Time::zero());
  ASSERT_TRUE(first.has_value());
  // A slot change alone: the refetch copies new slots and shares the
  // same map.
  fnal.publish(DynamicAttr::kFreeCpus, std::int64_t{7}, Time::minutes(1));
  const auto second = top.lookup("FNAL", Time::minutes(11));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->attrs, second->attrs);
  EXPECT_EQ(first->attrs, fnal.static_attributes());
  EXPECT_FALSE(first->has(DynamicAttr::kFreeCpus));
  EXPECT_EQ(second->get_int(DynamicAttr::kFreeCpus), 7);

  // A publish outside the slots while snapshots share the map: the GRIS
  // edits a copy, so the held snapshots keep the old map.
  fnal.publish(grid3ext::kAppDir, std::string{"/grid3/app"},
               Time::minutes(12));
  fnal.publish(DynamicAttr::kFreeCpus, std::int64_t{3}, Time::minutes(12));
  EXPECT_NE(fnal.static_attributes(), second->attrs);
  EXPECT_FALSE(second->has(grid3ext::kAppDir));
  const auto third = top.lookup("FNAL", Time::minutes(22));
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(third->attrs, second->attrs);
  EXPECT_EQ(third->get_string(grid3ext::kAppDir), "/grid3/app");
  EXPECT_EQ(third->get_int(DynamicAttr::kFreeCpus), 3);
  EXPECT_EQ(second->get_int(DynamicAttr::kFreeCpus), 7);
  EXPECT_FALSE(second->has(grid3ext::kAppDir));
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
  EXPECT_FALSE(snap.get(glue::kFreeCpus).has_value());
  snap.attrs = std::make_shared<const AttributeMap>(std::move(attrs));
  EXPECT_EQ(snap.get_int("int"), 7);
  EXPECT_EQ(snap.get_int("dbl"), 3);  // double narrows
  EXPECT_EQ(snap.get_string("str"), "hi");
  EXPECT_EQ(snap.get_bool("flag"), true);
  EXPECT_FALSE(snap.get_int("missing").has_value());
  EXPECT_FALSE(snap.get_bool("str").has_value());

  // Slot keys read the slots, by key or by index, with the same typing.
  snap.dynamic.set(DynamicAttr::kFreeCpus, std::int64_t{4}, Time::zero());
  snap.dynamic.set(DynamicAttr::kSeAvailableGb, 2.5, Time::zero());
  snap.dynamic.set(DynamicAttr::kWaitingJobs, std::string{"n/a"},
                   Time::zero());
  snap.dynamic.set(DynamicAttr::kRunningJobs, true, Time::zero());
  EXPECT_EQ(snap.get_int(glue::kFreeCpus), 4);
  EXPECT_EQ(snap.get_int(DynamicAttr::kFreeCpus), 4);
  EXPECT_EQ(snap.get_int(glue::kSeAvailableGb), 2);  // double narrows
  EXPECT_EQ(snap.get_int(DynamicAttr::kSeAvailableGb), 2);
  EXPECT_EQ(snap.get_double(DynamicAttr::kSeAvailableGb), 2.5);
  EXPECT_FALSE(snap.get_double(DynamicAttr::kFreeCpus).has_value());
  EXPECT_EQ(snap.get_string(glue::kFreeCpus), "4");
  EXPECT_EQ(snap.get_string(glue::kWaitingJobs), "n/a");
  EXPECT_FALSE(snap.get_int(DynamicAttr::kWaitingJobs).has_value());
  EXPECT_EQ(snap.get_bool(glue::kRunningJobs), true);
  EXPECT_FALSE(snap.get_bool(glue::kFreeCpus).has_value());
  EXPECT_TRUE(snap.has(DynamicAttr::kFreeCpus));
  EXPECT_TRUE(snap.has(glue::kSeAvailableGb));
  EXPECT_FALSE(snap.has(DynamicAttr::kTotalCpus));
  EXPECT_FALSE(snap.get(glue::kTotalCpus).has_value());
  EXPECT_FALSE(snap.get_int(DynamicAttr::kSeDrainGbPerHour).has_value());
  EXPECT_EQ(snap.dynamic.size(), 4u);
}

}  // namespace
}  // namespace grid3::mds
