// Unified data-placement layer: stage-out leases.
//
// Grid2003 attributed a large share of job failures to storage
// exhaustion discovered only at stage-out time (section 6.2: "more
// frequently a disk would fill up ... and all jobs submitted to a site
// would die"; "storage reservation (e.g., as provided by SRM) would
// have prevented various storage-related service failures").  Before
// this layer existed, placement knowledge was scattered: the planner
// hard-coded stage-out destinations, the broker matched without asking
// whether the destination SE had room, and the gatekeeper discovered
// full disks after the compute cycles were already spent.
//
// A StageOutLease is one job's claim on its data destiny: the resolved
// destination SE and an SRM space reservation covering the output volume
// (when the SE runs an SRM).  The job's own stage-out registers its
// outputs in RLS.  The per-VO PlacementLedger owns every lease:
//
//   * the broker ACQUIRES a lease at match time -- a full destination
//     becomes a match-time rejection (the job waits in the broker)
//     instead of a stage-out failure after hours of computing;
//   * the gatekeeper's stage-out lands inside the lease's reservation,
//     closing the bare-GridFTP TOCTOU window;
//   * on success the lease is CONSUMED: the reservation converts into a
//     durable file allocation on the destination volume;
//   * on every failure, hold, and rescue path the lease is RELEASED so
//     reserved space never leaks (reserved_total() drains to zero once
//     a scenario is fully drained).
//
// The ledger is the one record of its decisions: its lifetime counters
// and, for the model checker, an audit tap on every transition.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "srm/disk.h"
#include "srm/srm.h"
#include "util/units.h"

namespace grid3::gridftp {
class GridFtpServer;
}  // namespace grid3::gridftp

namespace grid3::placement {

/// Resolves site names to their storage services.  core::Grid3
/// implements this alongside workflow::SiteServices; `volume` is the
/// same member that serves that interface.
class StorageDirectory {
 public:
  virtual ~StorageDirectory() = default;
  /// The site's SRM head node, or null when the SE is unmanaged.
  [[nodiscard]] virtual srm::StorageResourceManager* storage(
      const std::string& site) = 0;
  /// The site's disk volume, or null when the site is unknown.
  [[nodiscard]] virtual srm::DiskVolume* volume(const std::string& site) = 0;
  /// The site's GridFTP endpoint, or null when the site is unknown.
  /// Lets the broker repoint a job's stage-out at whichever SE of a
  /// failover chain the lease actually resolved to.  core::Grid3 serves
  /// this with the same override as workflow::SiteServices::ftp.
  [[nodiscard]] virtual gridftp::GridFtpServer* ftp(
      const std::string& site) = 0;
};

using LeaseId = std::uint64_t;

/// One job's stage-out claim: destination SE + SRM reservation.
///
/// Two acquirers exist.  Per-job: the broker leases a spec's stage-out
/// intent before binding, and the lease is consumed (archive succeeded)
/// or released when that one submission resolves.  Gang-scoped: for a
/// co-located DAG level, ResourceBroker::submit_gang acquires ONE lease
/// covering the level's aggregate intermediate-product bytes at the
/// gang's primary site (pro-rated to the primary's member share when
/// the gang had to split; app label "gang:<gang_id>").  A gang
/// lease is never consumed -- the members' own stage-outs account the
/// durable bytes -- it is released exactly once, when the last member
/// resolves, on every path: success, failure, hold-expiry, and rescue.
struct StageOutLease {
  LeaseId id = 0;
  std::string app;
  /// SE the lease actually resolved to (the chain's first admissible SE
  /// with room).  All space accounting -- consume, release, srm_for --
  /// follows this site, never the primary.
  std::string dest_site;
  /// Head of the preference chain the acquire was asked for.  Equal to
  /// `dest_site` unless the acquisition fell through.
  std::string primary_site;
  /// Fallthrough hops taken before `dest_site` accepted: 0 = the primary
  /// took it, n = n chain entries were full, quarantined, or unreachable.
  int hops = 0;
  Bytes size;
  /// SRM reservation backing the lease; 0 = probe mode (the destination
  /// has no SRM, so the ledger could only verify free space at acquire
  /// time -- the TOCTOU window stays open but hopeless matches are
  /// still rejected up front).
  srm::ReservationId reservation = 0;
};

enum class AcquireStatus {
  kLeased,     ///< space secured (reserved or probed)
  kNoStorage,  ///< destination has no managed storage; proceed unleased
  kDiskFull,   ///< destination cannot hold the output: reject the match
};

struct AcquireResult {
  AcquireStatus status = AcquireStatus::kNoStorage;
  LeaseId lease = 0;
  /// SE the lease resolved to (empty unless kLeased).  Differs from the
  /// chain head when the acquisition fell through.
  std::string site;
  /// Chain entries rejected (full, quarantined, or unreachable) before
  /// one accepted -- or before the chain ran dry.
  int hops = 0;
  /// Chain SEs that *actively* refused the space (SRM denied or probe
  /// found the volume full) -- the caller's storage-health signal.
  /// Quarantine-vetoed and unknown entries are not listed: the former
  /// are already condemned, the latter said nothing about storage.
  std::vector<std::string> refused_sites;
  [[nodiscard]] bool leased() const {
    return status == AcquireStatus::kLeased;
  }
};

class PlacementLedger {
 public:
  PlacementLedger(std::string vo, StorageDirectory& storage);
  PlacementLedger(const PlacementLedger&) = delete;
  PlacementLedger& operator=(const PlacementLedger&) = delete;

  /// Secure stage-out space at `dest_site` for `size` bytes.  Durable
  /// SRM reservation when the SE runs one (sweeps cannot reclaim it
  /// mid-job); free-space probe otherwise.  The lease keeps `app`, not
  /// `lfns`: the job's stage-out registers its outputs itself.
  [[nodiscard]] AcquireResult acquire(const std::string& dest_site,
                                      Bytes size, const std::string& app,
                                      const std::vector<std::string>& lfns,
                                      Time now);

  /// Failover-chain acquire: walk `chain` in preference order and lease
  /// the first SE that is admissible (not filtered out) and has room.
  /// Every rejected entry -- reservation denied, probe found the volume
  /// full, site quarantined by the admissibility filter, or site
  /// unknown to the directory -- is one fallthrough hop, counted in
  /// fallthroughs() and recorded in the lease.  When the
  /// whole chain rejects: kDiskFull if at least one SE actively refused
  /// (full or quarantined), kNoStorage when every entry was unknown to
  /// the directory (matching the single-SE contract: no managed storage
  /// anywhere means proceed unleased).
  [[nodiscard]] AcquireResult acquire(const std::vector<std::string>& chain,
                                      Bytes size, const std::string& app,
                                      const std::vector<std::string>& lfns,
                                      Time now);

  /// Admissibility veto consulted per chain entry during acquisition.
  /// core::Grid3 wires this to `!SiteHealthMonitor::quarantined(site)`
  /// so quarantined SEs are skipped (one hop) without the placement
  /// layer depending on grid3::health.  Null = everything admissible.
  using SiteFilter = std::function<bool(const std::string&)>;
  void set_admissibility(SiteFilter filter) {
    admissible_ = std::move(filter);
  }

  /// The resolved SE's GridFTP endpoint / disk volume for an active
  /// lease (null when the lease is unknown).  The broker uses these to
  /// repoint a job's stage-out when the lease fell through.
  [[nodiscard]] gridftp::GridFtpServer* ftp_for(LeaseId id);
  [[nodiscard]] srm::DiskVolume* volume_for(LeaseId id);

  /// Give the space back (job failed, was held too long, or entered a
  /// rescue DAG).  Idempotent; false when the lease is unknown.
  bool release(LeaseId id);

  /// The job archived its output: convert the reservation into a
  /// durable file allocation on the destination volume (the SE keeps
  /// the bytes; the reservation itself drains).
  bool consume(LeaseId id);

  [[nodiscard]] const StageOutLease* find(LeaseId id) const;
  /// SRM backing an active lease's reservation (null in probe mode).
  [[nodiscard]] srm::StorageResourceManager* srm_for(LeaseId id);

  /// Model-checker audit tap: fired on every lifecycle transition with
  /// the lease id and the event name -- "acquire", "consume", "release",
  /// "reject" (id 0), plus "consume-stale"/"release-stale" when the id
  /// is not an active lease.  A stale event is the signature of a
  /// double-release or use-after-release: exactly what the mc lease
  /// invariant hunts across interleavings.
  using AuditFn = std::function<void(LeaseId, const char* event)>;
  void set_audit(AuditFn audit) { audit_ = std::move(audit); }

  /// Active leases keyed by id (model-checker introspection).
  [[nodiscard]] const std::map<LeaseId, StageOutLease>& active_leases() const {
    return leases_;
  }

  [[nodiscard]] const std::string& vo() const { return vo_; }
  [[nodiscard]] std::size_t active() const;
  /// Bytes currently secured by active leases.
  [[nodiscard]] Bytes leased_bytes() const;

  // Lifetime counters (monotonic).
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }
  [[nodiscard]] std::uint64_t released() const { return released_; }
  /// Match-time rejections: the disk-full failures that never happened.
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  /// Chain entries skipped on the way to a resolved (or rejected) SE.
  [[nodiscard]] std::uint64_t fallthroughs() const { return fallthroughs_; }

 private:
  std::string vo_;
  StorageDirectory& storage_;
  SiteFilter admissible_;
  AuditFn audit_;
  LeaseId next_id_ = 1;
  std::map<LeaseId, StageOutLease> leases_;  ///< active only
  std::uint64_t acquired_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t fallthroughs_ = 0;
};

}  // namespace grid3::placement
