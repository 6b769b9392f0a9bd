#include "srm/srm.h"

#include <algorithm>

namespace grid3::srm {

std::optional<ReservationId> StorageResourceManager::reserve(
    const std::string& vo, Bytes size, SpaceType type, Time now,
    Time lifetime) {
  if (!up_) return std::nullopt;
  // The whole reservation is claimed from the volume up front; that is
  // the SRM guarantee (space is there when the transfer lands).
  if (!volume_.allocate(size)) return std::nullopt;
  const ReservationId id = next_reservation_++;
  reservations_.emplace(
      id, Reservation{id, vo, size, type, now, lifetime, Bytes::zero()});
  return id;
}

bool StorageResourceManager::release(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return false;
  volume_.release(it->second.size);
  // Drop pins living inside this reservation.
  for (auto pit = pins_.begin(); pit != pins_.end();) {
    if (pit->second.reservation == id) {
      pit = pins_.erase(pit);
    } else {
      ++pit;
    }
  }
  reservations_.erase(it);
  return true;
}

std::optional<PinId> StorageResourceManager::put(ReservationId id,
                                                 const std::string& lfn,
                                                 Bytes size, Time now,
                                                 Time pin_lifetime) {
  if (!up_) return std::nullopt;
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return std::nullopt;
  Reservation& r = it->second;
  if (r.used + size > r.size) return std::nullopt;  // reservation overflow
  r.used += size;
  const PinId pid = next_pin_++;
  pins_.emplace(pid, PinnedFile{pid, lfn, size, now + pin_lifetime, id});
  return pid;
}

Bytes StorageResourceManager::sweep(Time now) {
  Bytes reclaimed;
  // Expired pins free their bytes back into the reservation.
  for (auto it = pins_.begin(); it != pins_.end();) {
    if (it->second.pinned_until <= now) {
      auto rit = reservations_.find(it->second.reservation);
      if (rit != reservations_.end()) {
        rit->second.used =
            std::max(Bytes::zero(), rit->second.used - it->second.size);
      }
      it = pins_.erase(it);
    } else {
      ++it;
    }
  }
  // Expired volatile reservations return space to the volume (durable
  // and permanent reservations survive sweeps).
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    const Reservation& r = it->second;
    const bool expired = r.type == SpaceType::kVolatile &&
                         now - r.created >= r.lifetime;
    bool has_pins = false;
    if (expired) {
      for (const auto& [pid, pin] : pins_) {
        if (pin.reservation == r.id && pin.pinned_until > now) {
          has_pins = true;
          break;
        }
      }
    }
    if (expired && !has_pins) {
      volume_.release(r.size);
      reclaimed += r.size;
      it = reservations_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

Bytes StorageResourceManager::reserved_total() const {
  Bytes total;
  for (const auto& [id, r] : reservations_) total += r.size;
  return total;
}

}  // namespace grid3::srm
