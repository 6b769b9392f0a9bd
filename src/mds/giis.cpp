#include "mds/giis.h"

#include <algorithm>

namespace grid3::mds {

namespace {

std::optional<std::int64_t> as_int(const Attribute* attr) {
  if (attr == nullptr) return std::nullopt;
  if (const auto* p = std::get_if<std::int64_t>(&attr->value)) return *p;
  if (const auto* d = std::get_if<double>(&attr->value)) {
    return static_cast<std::int64_t>(*d);
  }
  return std::nullopt;
}

}  // namespace

const Attribute* SiteSnapshot::find(std::string_view key) const {
  if (const auto slot = dynamic_attr(key)) return dynamic.find(*slot);
  if (attrs == nullptr) return nullptr;
  auto it = attrs->find(key);
  return it == attrs->end() ? nullptr : &it->second;
}

std::optional<AttrValue> SiteSnapshot::get(std::string_view key) const {
  const Attribute* attr = find(key);
  if (attr == nullptr) return std::nullopt;
  return attr->value;
}

std::optional<std::int64_t> SiteSnapshot::get_int(std::string_view key) const {
  return as_int(find(key));
}

std::optional<std::int64_t> SiteSnapshot::get_int(DynamicAttr attr) const {
  return as_int(dynamic.find(attr));
}

std::optional<double> SiteSnapshot::get_double(DynamicAttr attr) const {
  const Attribute* a = dynamic.find(attr);
  if (a == nullptr) return std::nullopt;
  if (const auto* d = std::get_if<double>(&a->value)) return *d;
  return std::nullopt;
}

std::optional<std::string> SiteSnapshot::get_string(
    std::string_view key) const {
  const Attribute* attr = find(key);
  if (attr == nullptr) return std::nullopt;
  if (const auto* p = std::get_if<std::string>(&attr->value)) return *p;
  return to_string(attr->value);
}

std::optional<bool> SiteSnapshot::get_bool(std::string_view key) const {
  const Attribute* attr = find(key);
  if (attr == nullptr) return std::nullopt;
  if (const auto* p = std::get_if<bool>(&attr->value)) return *p;
  return std::nullopt;
}

Giis::~Giis() {
  for (Giis* child : children_) std::erase(child->parents_, this);
  for (Giis* parent : parents_) {
    std::erase(parent->children_, this);
    for (const auto& [site, e] : directory_) parent->relink(site);
  }
}

void Giis::relink(const std::string& site) {
  auto it = directory_.find(site);
  std::vector<Route> routes;
  if (it != directory_.end() && it->second.own) {
    routes.push_back({{}, it->second.own.get()});
  } else {
    for (const Giis* child : children_) {
      auto c = child->directory_.find(site);
      if (c == child->directory_.end()) continue;
      for (const Route& r : c->second.routes) {
        Route via{{child}, r.slot};
        via.hops.insert(via.hops.end(), r.hops.begin(), r.hops.end());
        routes.push_back(std::move(via));
      }
    }
  }
  if (!routes.empty()) {
    if (it == directory_.end()) it = directory_.try_emplace(site).first;
    it->second.routes = std::move(routes);
  } else if (it != directory_.end()) {
    directory_.erase(it);
  }
  for (Giis* parent : parents_) parent->relink(site);
}

void Giis::register_gris(const Gris* gris) {
  if (gris == nullptr) return;
  Entry& e = directory_[gris->site()];
  if (e.own) return;  // shadowed by the first registration
  e.own = std::make_unique<Slot>(Slot{gris, ttl_, {}});
  e.own->snap.site = gris->site();
  relink(gris->site());
}

void Giis::register_child(Giis* child) {
  if (child == nullptr || child == this) return;
  children_.push_back(child);
  child->parents_.push_back(this);
  for (const auto& [site, e] : child->directory_) relink(site);
}

std::vector<std::string> Giis::sites() const {
  std::vector<std::string> out;
  out.reserve(directory_.size());
  for (const auto& [site, e] : directory_) out.push_back(site);
  return out;
}

const SiteSnapshot* Giis::fetch(Slot& slot, Time now) {
  SiteSnapshot& snap = slot.snap;
  const bool have_cache = snap.attrs != nullptr;
  if (have_cache && now - snap.fetched < slot.ttl) {
    snap.fresh = true;
    return &snap;
  }
  if (slot.gris->available()) {
    snap.fetched = now;
    snap.fresh = true;
    snap.attrs = slot.gris->static_attributes();
    snap.dynamic = slot.gris->dynamic_attributes();
    return &snap;
  }
  // GRIS down: serve the stale snapshot within a grace period of one
  // additional TTL (MDS kept cached entries briefly), then drop the site.
  if (have_cache && now - snap.fetched < slot.ttl + slot.ttl) {
    snap.fresh = false;
    return &snap;
  }
  return nullptr;
}

const SiteSnapshot* Giis::serve(const Entry& entry, Time now) const {
  for (const Route& r : entry.routes) {
    if (std::any_of(r.hops.begin(), r.hops.end(),
                    [](const Giis* g) { return !g->up_; })) {
      continue;
    }
    if (const SiteSnapshot* snap = fetch(*r.slot, now)) return snap;
  }
  return nullptr;
}

std::optional<SiteSnapshot> Giis::lookup(const std::string& site,
                                         Time now) const {
  if (!up_) return std::nullopt;
  auto it = directory_.find(site);
  const SiteSnapshot* snap =
      it == directory_.end() ? nullptr : serve(it->second, now);
  if (snap == nullptr) return std::nullopt;
  return *snap;
}

std::vector<SiteSnapshot> Giis::find(
    const std::function<bool(const SiteSnapshot&)>& pred, Time now) const {
  std::vector<SiteSnapshot> out;
  if (!up_) return out;
  out.reserve(directory_.size());
  for (const auto& [site, e] : directory_) {
    const SiteSnapshot* snap = serve(e, now);
    if (snap != nullptr && pred(*snap)) out.push_back(*snap);
  }
  return out;
}

}  // namespace grid3::mds
