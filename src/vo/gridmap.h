// Site-local authorization: grid-map files and VO group accounts.
//
// Grid3 generated local grid-map files by calling the EDG script against
// each VO's VOMS server (paper section 5.3).  The map is a *snapshot*:
// users added to a VO after the last regeneration are rejected by the
// gatekeeper until the site refreshes -- a real operational failure mode
// this module reproduces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vo/voms.h"

namespace grid3::vo {

/// Unix group account convention: one shared account per VO per site
/// (e.g. "usatlas1", "uscms1").
struct GroupAccount {
  std::string unix_name;
  std::string vo;
};

/// A site's grid-map file plus the VO -> group-account policy used to
/// regenerate it.
class GridMapFile {
 public:
  /// Declare which VOs the site supports and the account each maps to.
  void support_vo(const std::string& vo, GroupAccount account);
  [[nodiscard]] bool supports_vo(const std::string& vo) const;

  /// Regenerate from the given VOMS servers (edg-mkgridmap).  Servers for
  /// unsupported VOs are ignored; unavailable servers leave that VO's
  /// previous entries intact (stale but functional -- matching the real
  /// script's behaviour of keeping the old file on failure).
  /// Returns the number of DN entries in the new map.
  ///
  /// Rebuilding from unchanged inputs reproduces the same map, so when
  /// the server list and every server's version equal those of the last
  /// rebuild, and no support_vo came since, this returns at once.
  std::size_t regenerate(const std::vector<const VomsServer*>& servers);

  /// Gatekeeper lookup: DN -> local account.
  [[nodiscard]] std::optional<GroupAccount> map(const std::string& dn) const;

  [[nodiscard]] std::size_t entries() const { return map_.size(); }

 private:
  struct Source {
    const VomsServer* server;
    std::uint64_t version;
  };
  [[nodiscard]] bool unchanged(
      const std::vector<const VomsServer*>& servers) const;

  std::unordered_map<std::string, GroupAccount> policy_;  // vo -> account
  std::unordered_map<std::string, GroupAccount> map_;     // dn -> account
  /// The servers, in order, and their versions at the last rebuild;
  /// support_vo clears it, so the next regenerate from any server rebuilds.
  std::vector<Source> built_from_;
};

}  // namespace grid3::vo
