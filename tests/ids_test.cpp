// Unit tests for the interned-id layer (core/ids.h): stable
// registration-order numbering, typed-id safety, dense id maps, and
// bitset membership -- the invariants every converted hot path relies
// on for byte-identical determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ids.h"

namespace grid3::core {
namespace {

TEST(Interner, AssignsDenseIdsInFirstSeenOrder) {
  Interner<SiteId> sites;
  const SiteId bnl = sites.intern("BNL_ATLAS");
  const SiteId fnal = sites.intern("FNAL_CMS");
  const SiteId uc = sites.intern("UC_ATLAS");
  EXPECT_EQ(bnl.value(), 0u);
  EXPECT_EQ(fnal.value(), 1u);
  EXPECT_EQ(uc.value(), 2u);
  // Registration order, not name order.
  EXPECT_EQ(sites.names(),
            (std::vector<std::string>{"BNL_ATLAS", "FNAL_CMS", "UC_ATLAS"}));
}

TEST(Interner, ReinterningIsIdempotent) {
  Interner<SiteId> sites;
  const SiteId first = sites.intern("BNL_ATLAS");
  (void)sites.intern("FNAL_CMS");
  // Interning again -- e.g. a second job naming the same candidate
  // sites -- must return the original id, never renumber.
  EXPECT_EQ(sites.intern("BNL_ATLAS"), first);
  EXPECT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites.name(first), "BNL_ATLAS");
}

TEST(Interner, FindDoesNotRegister) {
  Interner<SiteId> sites;
  EXPECT_FALSE(sites.find("UNSEEN").valid());
  EXPECT_FALSE(sites.contains("UNSEEN"));
  EXPECT_EQ(sites.size(), 0u);
  const SiteId id = sites.intern("SEEN");
  EXPECT_EQ(sites.find("SEEN"), id);
  EXPECT_TRUE(sites.contains("SEEN"));
}

TEST(Interner, IdsStableAcrossUnrelatedGrowth) {
  // The health monitor and broker hold ids across view refreshes that
  // intern new sites; earlier ids and names must not move.
  Interner<SiteId> sites;
  std::vector<SiteId> first;
  for (int i = 0; i < 8; ++i) {
    first.push_back(sites.intern("site-" + std::to_string(i)));
  }
  for (int i = 100; i < 200; ++i) {
    (void)sites.intern("late-" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sites.find("site-" + std::to_string(i)), first[i]);
    EXPECT_EQ(sites.name(first[i]), "site-" + std::to_string(i));
  }
}

TEST(InternedId, DefaultIsInvalid) {
  SiteId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SiteId::invalid());
  EXPECT_TRUE(SiteId{0}.valid());
  EXPECT_LT(SiteId{0}, SiteId{1});
}

TEST(IdMap, GrowsOnWriteAndDefaultsOnMiss) {
  Interner<SiteId> sites;
  IdMap<SiteId, int> inflight;
  const SiteId a = sites.intern("A");
  const SiteId b = sites.intern("B");
  EXPECT_EQ(inflight.get(a, 0), 0);      // never written
  EXPECT_EQ(inflight.get(SiteId{}, 7), 7);  // invalid id -> fallback
  ++inflight.at_or_grow(b);
  EXPECT_EQ(inflight.get(b, 0), 1);
  EXPECT_EQ(inflight.get(a, 0), 0);  // untouched neighbour stays default
  ASSERT_NE(inflight.find(b), nullptr);
  EXPECT_EQ(*inflight.find(b), 1);
  // Ids beyond the grown range are absent, not materialized.
  const SiteId c = sites.intern("C");
  EXPECT_EQ(inflight.find(c), nullptr);
  EXPECT_EQ(inflight.get(c, 9), 9);
}

TEST(IdBitset, MembershipMatchesSetHistory) {
  Interner<SiteId> sites;
  IdBitset bits;
  EXPECT_TRUE(bits.empty());
  const SiteId a = sites.intern("A");
  const SiteId far = sites.intern("FAR");
  bits.set(a);
  bits.set(200u);  // beyond the first word
  EXPECT_TRUE(bits.test(a));
  EXPECT_FALSE(bits.test(far));
  EXPECT_TRUE(bits.test(200u));
  EXPECT_FALSE(bits.test(SiteId{}));  // invalid id is never a member
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_FALSE(bits.empty());
  bits.clear();
  EXPECT_TRUE(bits.empty());
  EXPECT_FALSE(bits.test(a));
}

TEST(IdRegistry, TypedInternersAreIndependent) {
  IdRegistry reg;
  const SiteId site = reg.sites.intern("BNL_ATLAS");
  const VoId vo = reg.vos.intern("usatlas");
  const ServiceId svc = reg.services.intern("gram");
  // Same numeric values, distinct namespaces.
  EXPECT_EQ(site.value(), 0u);
  EXPECT_EQ(vo.value(), 0u);
  EXPECT_EQ(svc.value(), 0u);
  EXPECT_EQ(reg.sites.size(), 1u);
  EXPECT_FALSE(reg.storage.contains("BNL_ATLAS"));
}

}  // namespace
}  // namespace grid3::core
