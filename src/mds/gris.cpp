#include "mds/gris.h"

namespace grid3::mds {

namespace {

/// Slot keys in DynamicAttr order.
constexpr std::array<std::string_view, kDynamicAttrCount> kSlotKeys{
    glue::kTotalCpus,     glue::kFreeCpus,       glue::kRunningJobs,
    glue::kWaitingJobs,   glue::kSeAvailableGb,  glue::kSeTotalGb,
    grid3ext::kSeDrainGbPerHour,
};

}  // namespace

std::string_view key_of(DynamicAttr attr) {
  return kSlotKeys[static_cast<std::size_t>(attr)];
}

std::optional<DynamicAttr> dynamic_attr(std::string_view key) {
  for (std::size_t i = 0; i < kSlotKeys.size(); ++i) {
    if (kSlotKeys[i] == key) return static_cast<DynamicAttr>(i);
  }
  return std::nullopt;
}

AttributeMap& Gris::own_static() {
  if (static_.use_count() > 1) {
    static_ = std::make_shared<AttributeMap>(*static_);
  }
  return *static_;
}

void Gris::publish(std::string_view key, AttrValue value, Time now) {
  if (const auto slot = dynamic_attr(key)) {
    publish(*slot, std::move(value), now);
    return;
  }
  // One descent; an existing attribute is updated in place, so a
  // republish builds no key string.
  AttributeMap& attrs = own_static();
  auto it = attrs.lower_bound(key);
  if (it != attrs.end() && it->first == key) {
    it->second = {std::move(value), now};
    return;
  }
  attrs.emplace_hint(it, std::string{key}, Attribute{std::move(value), now});
}

std::optional<Attribute> Gris::query(std::string_view key) const {
  if (!up_) return std::nullopt;
  if (const auto slot = dynamic_attr(key)) {
    const Attribute* attr = dynamic_.find(*slot);
    if (attr == nullptr) return std::nullopt;
    return *attr;
  }
  auto it = static_->find(key);
  if (it == static_->end()) return std::nullopt;
  return it->second;
}

}  // namespace grid3::mds
