// GridFTP servers and a retrying url-copy client.
//
// Transfers ride the net::Network fair-share model.  Destination disk
// space is checked at transfer start but only *claimed* when the data
// lands -- the bare-GridFTP TOCTOU window that let concurrent transfers
// overfill a disk (the failure SRM reservations would have prevented,
// section 6.2).  Passing a pre-made SRM reservation closes the window.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "gridftp/netlogger.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "srm/disk.h"
#include "srm/srm.h"
#include "util/retry.h"
#include "util/units.h"

namespace grid3::gridftp {

enum class TransferStatus {
  kCompleted,
  kFailedNetwork,     ///< interruption persisted through all retries
  kFailedNoSpace,     ///< destination disk filled
  kFailedServerDown,  ///< src or dst GridFTP server unavailable
  kFailedNoRoute,     ///< firewall / connectivity refused
  kCancelled,
};

[[nodiscard]] const char* to_string(TransferStatus s);

/// Per-site GridFTP server state.
class GridFtpServer {
 public:
  GridFtpServer(std::string site, net::NodeId node)
      : site_{std::move(site)}, node_{node} {}

  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] net::NodeId node() const { return node_; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  std::string site_;
  net::NodeId node_;
  bool up_ = true;
};

struct TransferRequest {
  GridFtpServer* src = nullptr;
  GridFtpServer* dst = nullptr;
  Bytes size;
  std::string lfn;  ///< logical file name, for logs and RLS registration
  /// Destination volume for space accounting; nullptr = unmanaged path
  /// (e.g. an external archive with effectively infinite tape).
  srm::DiskVolume* dest_volume = nullptr;
  /// Pre-reserved SRM space: when set, bytes land inside the reservation
  /// and the TOCTOU window is closed.
  srm::StorageResourceManager* dest_srm = nullptr;
  srm::ReservationId reservation = 0;
  /// Retry schedule for network-interrupted attempts (flat backoff).
  util::RetryPolicy retry{.base = Time::minutes(2), .max_retries = 2};
};

struct TransferRecord {
  TransferStatus status = TransferStatus::kCancelled;
  Bytes requested;
  Bytes transferred;
  Time started;
  Time finished;
  int attempts = 0;
  std::string lfn;
  [[nodiscard]] bool ok() const { return status == TransferStatus::kCompleted; }
  [[nodiscard]] Bandwidth throughput() const {
    const double secs = (finished - started).to_seconds();
    return secs > 0 ? Bandwidth::bytes_per_sec(
                          static_cast<double>(transferred.count()) / secs)
                    : Bandwidth{};
  }
};

using TransferCallback = std::function<void(const TransferRecord&)>;

/// globus-url-copy with retry.  One client instance can drive any number
/// of concurrent transfers.
class GridFtpClient {
 public:
  GridFtpClient(sim::Simulation& sim, net::Network& network,
                NetLogger* logger = nullptr)
      : sim_{sim}, net_{network}, logger_{logger} {}

  void transfer(TransferRequest req, TransferCallback done);

  [[nodiscard]] std::uint64_t started() const { return started_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  struct Attempt {
    TransferRequest req;
    TransferCallback done;
    Time first_started;
    int attempts = 0;
  };

  void begin_attempt(Attempt att);
  void finish(Attempt att, const net::FlowResult& flow);
  void report(const Attempt& att, TransferStatus status, Bytes moved,
              Time started);

  sim::Simulation& sim_;
  net::Network& net_;
  NetLogger* logger_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace grid3::gridftp
