// GRIS: the per-site Grid Resource Information Service.
//
// Information providers (batch scheduler, Ganglia, Pacman) publish
// attributes into the site GRIS; GIIS index servers pull snapshots with a
// cache TTL, so consumers may observe bounded staleness -- faithfully
// reproducing MDS2 semantics, where a dead GRIS keeps serving cached data
// until the TTL lapses.
//
// A GRIS keeps its attributes in two stores.  The seven the site's
// 5-minute monitor sweep refreshes (DynamicAttr) sit in fixed slots, each
// with a presence bit, which the sweep writes by index and a GIIS pull
// copies by value.  Every other attribute lives in one shared, sorted map
// that a GIIS pull shares by pointer; a publish or retract clones the map
// first while a snapshot still shares it (copy-on-write), so a snapshot
// never changes once served.  The string-keyed publish, query and retract
// serve every key, routing the seven slot keys to their slots.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "mds/schema.h"
#include "util/units.h"

namespace grid3::mds {

struct Attribute {
  AttrValue value;
  Time updated;
};

/// Attributes by key, sorted (LDIF-style order).
using AttributeMap = std::map<std::string, Attribute, std::less<>>;

/// The attributes the site monitor sweep refreshes every five minutes,
/// one fixed slot each.
enum class DynamicAttr : std::uint8_t {
  kTotalCpus,
  kFreeCpus,
  kRunningJobs,
  kWaitingJobs,
  kSeAvailableGb,
  kSeTotalGb,
  kSeDrainGbPerHour,
};
inline constexpr std::size_t kDynamicAttrCount = 7;

/// The GLUE key a slot is published and queried under.
[[nodiscard]] std::string_view key_of(DynamicAttr attr);
/// The slot `key` names, or nullopt for a key kept in the shared map.
[[nodiscard]] std::optional<DynamicAttr> dynamic_attr(std::string_view key);

/// The dynamic slots, held and copied by value.
class DynamicAttrs {
 public:
  /// The slot's attribute, or null while it is absent.
  [[nodiscard]] const Attribute* find(DynamicAttr attr) const {
    const auto i = static_cast<std::size_t>(attr);
    return ((present_ >> i) & 1U) != 0 ? &slots_[i] : nullptr;
  }
  void set(DynamicAttr attr, AttrValue value, Time now) {
    const auto i = static_cast<std::size_t>(attr);
    slots_[i] = {std::move(value), now};
    present_ = static_cast<std::uint8_t>(present_ | 1U << i);
  }
  /// Empty the slot; false when it was already absent.
  bool clear(DynamicAttr attr);
  /// Slots present.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(present_));
  }

 private:
  std::array<Attribute, kDynamicAttrCount> slots_{};
  std::uint8_t present_ = 0;
};

class Gris {
 public:
  explicit Gris(std::string site_name)
      : site_{std::move(site_name)},
        static_{std::make_shared<AttributeMap>()} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  /// Publish/update an attribute (providers call this on their cadence).
  void publish(std::string_view key, AttrValue value, Time now);
  /// Publish a dynamic slot by index (the site monitor sweep).
  void publish(DynamicAttr attr, AttrValue value, Time now) {
    dynamic_.set(attr, std::move(value), now);
  }

  /// Remove an attribute (e.g. an application de-published).
  bool retract(std::string_view key);

  /// Direct query against the live server; nullopt when the attribute is
  /// missing or the server is down.
  [[nodiscard]] std::optional<Attribute> query(std::string_view key) const;

  /// The map of every attribute outside the slots, as the server holds
  /// it, shared with the caller until the next publish or retract of
  /// such an attribute (the GIIS pull reads both stores regardless of
  /// availability; it checks available()).
  [[nodiscard]] std::shared_ptr<const AttributeMap> static_attributes() const {
    return static_;
  }
  [[nodiscard]] const DynamicAttrs& dynamic_attributes() const {
    return dynamic_;
  }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

  [[nodiscard]] std::size_t attribute_count() const {
    return static_->size() + dynamic_.size();
  }

 private:
  /// The shared map, cloned first if a snapshot still holds it.
  AttributeMap& own_static();

  std::string site_;
  bool up_ = true;
  std::shared_ptr<AttributeMap> static_;
  DynamicAttrs dynamic_;
};

}  // namespace grid3::mds
