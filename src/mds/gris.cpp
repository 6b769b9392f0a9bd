#include "mds/gris.h"

namespace grid3::mds {

void Gris::publish(std::string_view key, AttrValue value, Time now) {
  // One descent; an existing attribute is updated in place, so the
  // periodic refresh builds no key string.
  auto it = attrs_.lower_bound(key);
  if (it != attrs_.end() && it->first == key) {
    it->second = {std::move(value), now};
    return;
  }
  attrs_.emplace_hint(it, std::string{key}, Attribute{std::move(value), now});
}

bool Gris::retract(std::string_view key) {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return false;
  attrs_.erase(it);
  return true;
}

std::optional<Attribute> Gris::query(std::string_view key) const {
  if (!up_) return std::nullopt;
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return std::nullopt;
  return it->second;
}

}  // namespace grid3::mds
