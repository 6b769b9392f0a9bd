// GIIS: hierarchical Grid Index Information Service.
//
// Two-tier registration as deployed on Grid3 (section 5): each site GRIS
// registers with its VO's GIIS, and VO GIISes register with the top-level
// iGOC index.  Queries read through a per-site cache refreshed lazily when
// older than the TTL; if a GRIS is down the cached snapshot is served
// until it expires, after which the site drops out of query results.
//
// The cache lives in the index a GRIS registered with, so a down child
// index hides its sites from its parents at once.  Every index keeps a
// flat, name-sorted directory of each GRIS reachable through it: the
// route (child indices passed through, then the cache entry) that
// answers first for each site name.  Registration at any tier updates
// the directory of that index and of every index above it, so a find is
// one pass over the directory and a lookup one ordered search.
//
// A fetch copies the GRIS's dynamic slots by value and shares its map of
// the other attributes by pointer: the GRIS clones that map before its
// next change while a snapshot holds it, so a refetch with no such change
// between shares the very same map, and a cache hit, a stale serve and a
// find result each copy the slots and a pointer, never a string of the
// attributes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mds/gris.h"

namespace grid3::mds {

/// A cached snapshot of one site's GRIS contents.
struct SiteSnapshot {
  std::string site;
  Time fetched;
  bool fresh = false;  ///< false when served past-TTL or never fetched
  /// The GRIS's attributes outside the slots as of `fetched`, shared by
  /// every copy of this snapshot (and by the GRIS until it next changes
  /// one); null until the first fetch, and reads as no attributes.
  std::shared_ptr<const AttributeMap> attrs;
  /// The GRIS's dynamic slots as of `fetched`.
  DynamicAttrs dynamic;

  /// The attribute under `key`, or null; a slot key reads its slot.
  [[nodiscard]] const Attribute* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] bool has(DynamicAttr attr) const {
    return dynamic.find(attr) != nullptr;
  }

  [[nodiscard]] std::optional<AttrValue> get(std::string_view key) const;
  /// An int64 value, or a double one truncated.
  [[nodiscard]] std::optional<std::int64_t> get_int(std::string_view key) const;
  [[nodiscard]] std::optional<std::int64_t> get_int(DynamicAttr attr) const;
  /// A double value; nullopt for every other type.
  [[nodiscard]] std::optional<double> get_double(DynamicAttr attr) const;
  [[nodiscard]] std::optional<std::string> get_string(std::string_view key) const;
  [[nodiscard]] std::optional<bool> get_bool(std::string_view key) const;
};

class Giis {
 public:
  Giis(std::string name, Time cache_ttl)
      : name_{std::move(name)}, ttl_{cache_ttl} {}
  /// Unlinks this index from its parents and children, so either may
  /// outlive it.
  ~Giis();
  // Parents and children hold this index's address.
  Giis(const Giis&) = delete;
  Giis& operator=(const Giis&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Register a site GRIS with this index (non-owning; the Site owns it).
  /// A second GRIS under a name already registered here is shadowed by
  /// the first.
  void register_gris(const Gris* gris);
  /// Register a child index (VO GIIS -> top-level GIIS).  For a name
  /// reachable several ways, this index's own GRIS answers first, then
  /// each child in registration order.
  void register_child(Giis* child);

  /// Drop every GRIS registered here under `site_name`, and its cache.
  void deregister_gris(const std::string& site_name);

  /// All site names reachable through this index (direct + children).
  [[nodiscard]] std::vector<std::string> sites() const;

  /// Snapshot of a site, refreshing the cache if stale.  Returns nullopt
  /// when the site is unknown or its cache expired with the GRIS down.
  [[nodiscard]] std::optional<SiteSnapshot> lookup(const std::string& site,
                                                   Time now) const;

  /// All sites whose snapshot satisfies `pred` (discovery queries, e.g.
  /// "sites with app X installed and >= N free CPUs"), in name order.
  [[nodiscard]] std::vector<SiteSnapshot> find(
      const std::function<bool(const SiteSnapshot&)>& pred, Time now) const;

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  /// The cache of one GRIS registered directly with an index.
  struct Slot {
    const Gris* gris;
    Time ttl;
    SiteSnapshot snap;  ///< attrs null until the first fetch
  };
  /// How an index reaches a GRIS: down through `hops` (child indices,
  /// nearest first; empty for its own GRIS) to the cache that serves it.
  struct Route {
    std::vector<const Giis*> hops;
    Slot* slot;
  };
  struct Entry {
    /// The first GRIS registered here under this name, if any.
    std::unique_ptr<Slot> own;
    /// Tried in order until one serves: `own` alone when set, else every
    /// child's routes in child registration order.
    std::vector<Route> routes;
  };
  /// Site name -> entry; a name is present while at least one route
  /// reaches it.  Node-based, so a registration inserts without moving
  /// the other entries.
  using Directory = std::map<std::string, Entry, std::less<>>;

  /// Refetch a stale cache; the snapshot to serve, or null.
  static const SiteSnapshot* fetch(Slot& slot, Time now);
  [[nodiscard]] const SiteSnapshot* serve(const Entry& entry, Time now) const;
  /// Recompute this index's routes for `site`, then its parents'.
  void relink(const std::string& site);

  std::string name_;
  Time ttl_;
  bool up_ = true;
  std::vector<Giis*> children_;
  std::vector<Giis*> parents_;
  /// The caches are conceptually server state mutated by reads.
  Directory directory_;
};

}  // namespace grid3::mds
