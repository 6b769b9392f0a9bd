// GRIS: the per-site Grid Resource Information Service.
//
// Information providers (batch scheduler, Ganglia, Pacman) publish
// attributes into the site GRIS; GIIS index servers pull snapshots with a
// cache TTL, so consumers may observe bounded staleness -- faithfully
// reproducing MDS2 semantics, where a dead GRIS keeps serving cached data
// until the TTL lapses.  A GIIS pull copies the attribute map once, from
// the const view attributes(), into the immutable snapshot every reader
// of that cache entry then shares.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "mds/schema.h"
#include "util/units.h"

namespace grid3::mds {

struct Attribute {
  AttrValue value;
  Time updated;
};

/// Attributes by key, sorted (LDIF-style order).
using AttributeMap = std::map<std::string, Attribute, std::less<>>;

class Gris {
 public:
  explicit Gris(std::string site_name) : site_{std::move(site_name)} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  /// Publish/update an attribute (providers call this on their cadence).
  void publish(std::string_view key, AttrValue value, Time now);

  /// Remove an attribute (e.g. an application de-published).
  bool retract(std::string_view key);

  /// Direct query against the live server; nullopt when the attribute is
  /// missing or the server is down.
  [[nodiscard]] std::optional<Attribute> query(std::string_view key) const;

  /// All attributes, sorted by key, as the server holds them (the GIIS
  /// pull reads this regardless of availability; it checks available()).
  [[nodiscard]] const AttributeMap& attributes() const { return attrs_; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

  [[nodiscard]] std::size_t attribute_count() const { return attrs_.size(); }

 private:
  std::string site_;
  bool up_ = true;
  AttributeMap attrs_;
};

}  // namespace grid3::mds
