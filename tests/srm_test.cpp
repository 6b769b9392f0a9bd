// Unit tests for disk volumes and the storage resource manager.
#include <gtest/gtest.h>

#include "srm/disk.h"
#include "srm/srm.h"

namespace grid3::srm {
namespace {

TEST(DiskVolume, AllocateReleaseAccounting) {
  DiskVolume disk{"t:/data", Bytes::gb(10)};
  EXPECT_TRUE(disk.allocate(Bytes::gb(4)));
  EXPECT_EQ(disk.used(), Bytes::gb(4));
  EXPECT_EQ(disk.free(), Bytes::gb(6));
  EXPECT_FALSE(disk.allocate(Bytes::gb(7)));  // over capacity
  EXPECT_EQ(disk.used(), Bytes::gb(4));       // unchanged on failure
  disk.release(Bytes::gb(4));
  EXPECT_EQ(disk.used(), Bytes::zero());
  EXPECT_EQ(disk.allocations(), 1u);
  EXPECT_EQ(disk.failures(), 1u);
}

TEST(DiskVolume, ReleaseClampsAtZero) {
  DiskVolume disk{"t:/data", Bytes::gb(1)};
  disk.release(Bytes::gb(5));
  EXPECT_EQ(disk.used(), Bytes::zero());
}

TEST(DiskVolume, UnmanagedConsumptionFillsDisk) {
  DiskVolume disk{"t:/data", Bytes::gb(10)};
  disk.consume_unmanaged(Bytes::gb(9));
  EXPECT_DOUBLE_EQ(disk.fill_fraction(), 0.9);
  EXPECT_FALSE(disk.allocate(Bytes::gb(2)));
  disk.cleanup(Bytes::gb(9));
  EXPECT_TRUE(disk.allocate(Bytes::gb(2)));
}

class SrmTest : public ::testing::Test {
 protected:
  DiskVolume disk{"se:/pool", Bytes::gb(100)};
  StorageResourceManager srm{"test-se", disk};
};

TEST_F(SrmTest, ReservationClaimsSpaceUpFront) {
  const auto r = srm.reserve("uscms", Bytes::gb(60), SpaceType::kVolatile,
                             Time::zero());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(disk.used(), Bytes::gb(60));
  // Another reservation exceeding the remainder fails.
  EXPECT_FALSE(srm.reserve("usatlas", Bytes::gb(50), SpaceType::kVolatile,
                           Time::zero())
                   .has_value());
  EXPECT_TRUE(srm.release(*r));
  EXPECT_EQ(disk.used(), Bytes::zero());
}

TEST_F(SrmTest, PutRespectsReservationBound) {
  const auto r = srm.reserve("uscms", Bytes::gb(10), SpaceType::kVolatile,
                             Time::zero());
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(srm.put(*r, "f1", Bytes::gb(6), Time::zero()).has_value());
  EXPECT_FALSE(srm.put(*r, "f2", Bytes::gb(6), Time::zero()).has_value());
  EXPECT_TRUE(srm.put(*r, "f3", Bytes::gb(4), Time::zero()).has_value());
}

TEST_F(SrmTest, SweepReclaimsExpiredVolatileSpace) {
  const auto r = srm.reserve("sdss", Bytes::gb(20), SpaceType::kVolatile,
                             Time::zero(), Time::days(1));
  ASSERT_TRUE(r.has_value());
  // Pin expires quickly too.
  ASSERT_TRUE(
      srm.put(*r, "f", Bytes::gb(5), Time::zero(), Time::hours(1)).has_value());
  EXPECT_EQ(srm.sweep(Time::hours(12)), Bytes::zero());  // not yet expired
  const Bytes reclaimed = srm.sweep(Time::days(2));
  EXPECT_EQ(reclaimed, Bytes::gb(20));
  EXPECT_EQ(disk.used(), Bytes::zero());
  EXPECT_EQ(srm.live_reservations(), 0u);
}

TEST_F(SrmTest, LivePinBlocksReservationSweep) {
  const auto r = srm.reserve("sdss", Bytes::gb(20), SpaceType::kVolatile,
                             Time::zero(), Time::days(1));
  ASSERT_TRUE(r.has_value());
  const auto pin =
      srm.put(*r, "f", Bytes::gb(5), Time::zero(), Time::days(30));
  ASSERT_TRUE(pin.has_value());
  srm.sweep(Time::days(2));
  EXPECT_EQ(srm.live_reservations(), 1u);  // pinned file keeps it alive
  EXPECT_EQ(srm.pinned_files(), 1u);
  // Once the pin expires, the same sweep drops it and the reservation.
  EXPECT_EQ(srm.sweep(Time::days(30)), Bytes::gb(20));
  EXPECT_EQ(srm.pinned_files(), 0u);
  EXPECT_EQ(srm.live_reservations(), 0u);
}

TEST_F(SrmTest, PermanentSpaceSurvivesSweeps) {
  const auto r = srm.reserve("usatlas", Bytes::gb(30), SpaceType::kPermanent,
                             Time::zero(), Time::days(1));
  ASSERT_TRUE(r.has_value());
  srm.sweep(Time::days(365));
  EXPECT_EQ(srm.live_reservations(), 1u);
  EXPECT_EQ(disk.used(), Bytes::gb(30));
}

TEST_F(SrmTest, UnavailableServiceRefusesOperations) {
  srm.set_available(false);
  EXPECT_FALSE(srm.reserve("x", Bytes::gb(1), SpaceType::kVolatile,
                           Time::zero())
                   .has_value());
}

}  // namespace
}  // namespace grid3::srm
