#include "placement/ledger.h"

namespace grid3::placement {

PlacementLedger::PlacementLedger(std::string vo, StorageDirectory& storage)
    : vo_{std::move(vo)}, storage_{storage} {}

AcquireResult PlacementLedger::acquire(const std::string& dest_site,
                                       Bytes size, const std::string& app,
                                       const std::vector<std::string>& lfns,
                                       Time now) {
  return acquire(std::vector<std::string>{dest_site}, size, app, lfns, now);
}

AcquireResult PlacementLedger::acquire(const std::vector<std::string>& chain,
                                       Bytes size, const std::string& app,
                                       const std::vector<std::string>& /*lfns*/,
                                       Time now) {
  // One verdict per chain entry: lease it, or classify the refusal.  A
  // "fallthrough hop" is the act of moving past a rejected entry to try
  // its successor, so a single-SE chain can never hop -- its semantics
  // are exactly the pre-chain contract.
  int hops = 0;
  bool any_refusal = false;  // full or quarantined (vs merely unknown)
  std::vector<std::string> refused;  // SEs that were actually full
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::string& dest_site = chain[i];
    const bool has_next = i + 1 < chain.size();

    srm::ReservationId reservation = 0;
    bool refused_here = false;
    bool known = true;
    if (admissible_ != nullptr && !admissible_(dest_site)) {
      // Quarantined (or otherwise vetoed): an active refusal, same as a
      // full SE -- the next chain entry gets its chance.
      refused_here = true;
    } else if (srm::StorageResourceManager* srm = storage_.storage(dest_site);
               srm != nullptr) {
      // Durable: cleanup sweeps must not reclaim the space while the
      // job is still computing toward its stage-out.
      const auto rid = srm->reserve(vo_, size, srm::SpaceType::kDurable, now);
      if (rid.has_value()) {
        reservation = *rid;
      } else {
        refused_here = true;
        refused.push_back(dest_site);
      }
    } else if (srm::DiskVolume* vol = storage_.volume(dest_site);
               vol != nullptr) {
      // Probe mode: no SRM to hold the space, but a destination that is
      // already too full to take the output is rejected now, not after
      // the job has burned its compute cycles.
      if (vol->free() < size) {
        refused_here = true;
        refused.push_back(dest_site);
      }
    } else {
      known = false;  // unreachable/unknown SE: fall through, no refusal
    }

    if (known && !refused_here) {
      const LeaseId id = next_id_++;
      ++acquired_;
      StageOutLease& lease = leases_[id];
      lease.id = id;
      lease.app = app;
      lease.dest_site = dest_site;
      lease.primary_site = chain.front();
      lease.hops = hops;
      lease.size = size;
      lease.reservation = reservation;
      if (audit_ != nullptr) audit_(id, "acquire");
      return {AcquireStatus::kLeased, id, dest_site, hops,
              std::move(refused)};
    }
    any_refusal = any_refusal || refused_here;
    if (has_next) {
      ++hops;
      ++fallthroughs_;
    }
  }

  if (any_refusal) {
    // The whole chain actively refused: surface kDiskFull so the match
    // becomes a hold, not a doomed binding.
    ++rejected_;
    if (audit_ != nullptr) audit_(0, "reject");
    return {AcquireStatus::kDiskFull, 0, {}, hops, std::move(refused)};
  }
  // Every entry was unknown to the directory: no managed storage
  // anywhere on the chain, proceed unleased.
  return {AcquireStatus::kNoStorage, 0, {}, hops, std::move(refused)};
}

bool PlacementLedger::release(LeaseId id) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    if (audit_ != nullptr) audit_(id, "release-stale");
    return false;
  }
  const StageOutLease lease = std::move(it->second);
  leases_.erase(it);
  if (lease.reservation != 0) {
    if (srm::StorageResourceManager* srm = storage_.storage(lease.dest_site)) {
      srm->release(lease.reservation);
    }
  }
  ++released_;
  if (audit_ != nullptr) audit_(id, "release");
  return true;
}

bool PlacementLedger::consume(LeaseId id) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    if (audit_ != nullptr) audit_(id, "consume-stale");
    return false;
  }
  const StageOutLease lease = std::move(it->second);
  leases_.erase(it);
  if (lease.reservation != 0) {
    // The archived file outlives the reservation: convert the reserved
    // space into a plain volume allocation, then drop the reservation.
    // Net volume usage is unchanged; reserved_total() drains.
    if (srm::StorageResourceManager* srm = storage_.storage(lease.dest_site)) {
      srm->release(lease.reservation);
      if (srm::DiskVolume* vol = storage_.volume(lease.dest_site)) {
        (void)vol->allocate(lease.size);  // release just freed >= size
      }
    }
  }
  ++consumed_;
  if (audit_ != nullptr) audit_(id, "consume");
  return true;
}

const StageOutLease* PlacementLedger::find(LeaseId id) const {
  auto it = leases_.find(id);
  return it == leases_.end() ? nullptr : &it->second;
}

srm::StorageResourceManager* PlacementLedger::srm_for(LeaseId id) {
  const StageOutLease* lease = find(id);
  if (lease == nullptr || lease->reservation == 0) return nullptr;
  return storage_.storage(lease->dest_site);
}

gridftp::GridFtpServer* PlacementLedger::ftp_for(LeaseId id) {
  const StageOutLease* lease = find(id);
  return lease == nullptr ? nullptr : storage_.ftp(lease->dest_site);
}

srm::DiskVolume* PlacementLedger::volume_for(LeaseId id) {
  const StageOutLease* lease = find(id);
  return lease == nullptr ? nullptr : storage_.volume(lease->dest_site);
}

std::size_t PlacementLedger::active() const { return leases_.size(); }

Bytes PlacementLedger::leased_bytes() const {
  Bytes total;
  for (const auto& [id, lease] : leases_) total += lease.size;
  return total;
}

}  // namespace grid3::placement
