// Unit tests for GridFTP: transfers, retries, disk-space races,
// NetLogger instrumentation.
#include <gtest/gtest.h>

#include <optional>

#include "gridftp/gridftp.h"
#include "gridftp/netlogger.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "srm/disk.h"

namespace grid3::gridftp {
namespace {

class GridFtpTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  net::Network net{sim};
  NetLogger logger;
  GridFtpClient client{sim, net, &logger};

  net::NodeId node_a = net.add_node({Bandwidth::mbps(100),
                                     Bandwidth::mbps(100), true});
  net::NodeId node_b = net.add_node({Bandwidth::mbps(100),
                                     Bandwidth::mbps(100), true});
  GridFtpServer ftp_a{"a", node_a};
  GridFtpServer ftp_b{"b", node_b};
};

TEST_F(GridFtpTest, SuccessfulTransferAccountsBytes) {
  srm::DiskVolume disk_b{"b:/data", Bytes::gb(1)};
  std::optional<TransferRecord> rec;
  int callbacks = 0;
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::mb(100);
  req.lfn = "test/file";
  req.dest_volume = &disk_b;
  client.transfer(std::move(req), [&](const TransferRecord& r) {
    rec = r;
    ++callbacks;
  });
  sim.run();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->ok());
  EXPECT_EQ(rec->transferred, Bytes::mb(100));
  // The same transfer from both ends: a sent the whole request, b's
  // volume holds it, and it was one transfer.
  EXPECT_EQ(rec->requested, rec->transferred);
  EXPECT_EQ(disk_b.used(), Bytes::mb(100));
  EXPECT_EQ(callbacks, 1);
  EXPECT_GT(rec->throughput().bps(), 0.0);
  EXPECT_EQ(client.completed(), 1u);
}

TEST_F(GridFtpTest, ServerDownFailsFast) {
  ftp_b.set_available(false);
  std::optional<TransferRecord> rec;
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::mb(1);
  client.transfer(std::move(req),
                  [&](const TransferRecord& r) { rec = r; });
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, TransferStatus::kFailedServerDown);
  EXPECT_EQ(client.failed(), 1u);
}

TEST_F(GridFtpTest, RetriesThroughTransientOutage) {
  // Node goes down mid-transfer, comes back before retries exhaust.
  std::optional<TransferRecord> rec;
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::gb(1);
  req.retry = {.base = Time::minutes(1), .max_retries = 3};
  client.transfer(std::move(req),
                  [&](const TransferRecord& r) { rec = r; });
  sim.schedule_at(Time::seconds(10), [&] { net.set_node_up(node_b, false); });
  sim.schedule_at(Time::seconds(30), [&] { net.set_node_up(node_b, true); });
  sim.run();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->ok());
  EXPECT_GT(rec->attempts, 1);
  EXPECT_GT(logger.count("transfer.retry"), 0u);
}

TEST_F(GridFtpTest, PermanentOutageExhaustsRetries) {
  std::optional<TransferRecord> rec;
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::gb(1);
  req.retry = {.base = Time::minutes(1), .max_retries = 2};
  client.transfer(std::move(req),
                  [&](const TransferRecord& r) { rec = r; });
  sim.schedule_at(Time::seconds(5), [&] { net.set_node_up(node_b, false); });
  sim.run();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, TransferStatus::kFailedNetwork);
  EXPECT_EQ(rec->attempts, 3);  // 1 original + 2 retries
}

TEST_F(GridFtpTest, FullDestinationFailsFast) {
  srm::DiskVolume disk{"b:/data", Bytes::mb(10)};
  ASSERT_TRUE(disk.allocate(Bytes::mb(10)));
  std::optional<TransferRecord> rec;
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::mb(5);
  req.dest_volume = &disk;
  client.transfer(std::move(req),
                  [&](const TransferRecord& r) { rec = r; });
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, TransferStatus::kFailedNoSpace);
}

TEST_F(GridFtpTest, ToctouRaceOverfillsWithoutSrm) {
  // Two concurrent transfers each pass the start-time free-space check;
  // only one can land -- the bare-GridFTP failure SRM prevents.
  srm::DiskVolume disk{"b:/data", Bytes::mb(120)};
  int ok = 0, no_space = 0;
  for (int i = 0; i < 2; ++i) {
    TransferRequest req;
    req.src = &ftp_a;
    req.dst = &ftp_b;
    req.size = Bytes::mb(100);
    req.dest_volume = &disk;
    client.transfer(std::move(req), [&](const TransferRecord& r) {
      if (r.ok()) {
        ++ok;
      } else if (r.status == TransferStatus::kFailedNoSpace) {
        ++no_space;
      }
    });
  }
  sim.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(no_space, 1);
}

TEST_F(GridFtpTest, SrmReservationClosesTheRace) {
  srm::DiskVolume disk{"b:/data", Bytes::mb(250)};
  srm::StorageResourceManager se{"b-se", disk};
  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    const auto res = se.reserve("uscms", Bytes::mb(100),
                                srm::SpaceType::kVolatile, sim.now());
    ASSERT_TRUE(res.has_value());
    TransferRequest req;
    req.src = &ftp_a;
    req.dst = &ftp_b;
    req.size = Bytes::mb(100);
    req.lfn = "file-" + std::to_string(i);
    req.dest_srm = &se;
    req.reservation = *res;
    client.transfer(std::move(req), [&](const TransferRecord& r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(se.pinned_files(), 2u);
}

TEST_F(GridFtpTest, NetLoggerRecordsStartEndError) {
  TransferRequest req;
  req.src = &ftp_a;
  req.dst = &ftp_b;
  req.size = Bytes::mb(10);
  client.transfer(std::move(req), {});
  sim.run();
  EXPECT_EQ(logger.count("transfer.start"), 1u);
  EXPECT_EQ(logger.count("transfer.end"), 1u);
  EXPECT_EQ(logger.count("transfer.error"), 0u);

  ftp_b.set_available(false);
  TransferRequest bad;
  bad.src = &ftp_a;
  bad.dst = &ftp_b;
  bad.size = Bytes::mb(10);
  client.transfer(std::move(bad), {});
  sim.run();
  EXPECT_EQ(logger.count("transfer.error"), 1u);
  const auto counts = logger.counts_by_event();
  EXPECT_EQ(counts.at("transfer.start"), 2u);
}

}  // namespace
}  // namespace grid3::gridftp
