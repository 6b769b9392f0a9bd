// Storage Resource Manager.
//
// The paper (section 6.2): "storage reservation (e.g., as provided by
// SRM) would have prevented various storage-related service failures."
// Grid3's base data model was bare GridFTP + RLS; SRM was an optional
// per-VO addition.  This module implements the reservation/pinning
// subset relevant to that claim so the ablation bench can compare a
// grid with and without managed storage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "srm/disk.h"
#include "util/units.h"

namespace grid3::srm {

using ReservationId = std::uint64_t;
using PinId = std::uint64_t;

enum class SpaceType { kVolatile, kDurable, kPermanent };

struct Reservation {
  ReservationId id = 0;
  std::string owner_vo;
  Bytes size;
  SpaceType type = SpaceType::kVolatile;
  Time created;
  Time lifetime;  ///< volatile space expires after this
  Bytes used;     ///< files written into the reservation
};

struct PinnedFile {
  PinId id = 0;
  std::string lfn;
  Bytes size;
  Time pinned_until;
  ReservationId reservation = 0;
};

/// SRM instance managing one disk volume (a dCache-style SE head node).
class StorageResourceManager {
 public:
  StorageResourceManager(std::string name, DiskVolume& volume)
      : name_{std::move(name)}, volume_{volume} {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Reserve space ahead of transfers.  Fails when the volume cannot
  /// cover the sum of all live reservations -- this is precisely the
  /// guard bare GridFTP lacked.
  [[nodiscard]] std::optional<ReservationId> reserve(
      const std::string& vo, Bytes size, SpaceType type, Time now,
      Time lifetime = Time::days(7));

  /// Release a reservation and drop the pins inside it.
  bool release(ReservationId id);

  /// Write a file into a reservation; fails when the reservation would
  /// overflow.  Returns a pin that protects the file from cleanup until
  /// `pin_lifetime` passes; only a sweep ends it.
  [[nodiscard]] std::optional<PinId> put(ReservationId id,
                                         const std::string& lfn, Bytes size,
                                         Time now,
                                         Time pin_lifetime = Time::days(2));

  /// Drop expired volatile reservations and expired pins, reclaiming
  /// space.  Returns bytes reclaimed.  Drive this periodically.
  Bytes sweep(Time now);

  [[nodiscard]] Bytes reserved_total() const;
  [[nodiscard]] std::size_t live_reservations() const {
    return reservations_.size();
  }
  [[nodiscard]] std::size_t pinned_files() const { return pins_.size(); }
  [[nodiscard]] const DiskVolume& volume() const { return volume_; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  std::string name_;
  DiskVolume& volume_;
  bool up_ = true;
  ReservationId next_reservation_ = 1;
  PinId next_pin_ = 1;
  std::map<ReservationId, Reservation> reservations_;
  std::map<PinId, PinnedFile> pins_;
};

}  // namespace grid3::srm
