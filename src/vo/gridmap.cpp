#include "vo/gridmap.h"

#include <algorithm>

namespace grid3::vo {

void GridMapFile::support_vo(const std::string& vo, GroupAccount account) {
  policy_[vo] = std::move(account);
  built_from_.clear();
}

bool GridMapFile::supports_vo(const std::string& vo) const {
  return policy_.contains(vo);
}

bool GridMapFile::unchanged(
    const std::vector<const VomsServer*>& servers) const {
  // An empty list matches before the first rebuild too: rebuilding from
  // no server carries the map forward unchanged.
  if (servers.size() != built_from_.size()) return false;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const VomsServer* s = servers[i];
    if (s != built_from_[i].server) return false;
    if (s != nullptr && s->version() != built_from_[i].version) return false;
  }
  return true;
}

std::size_t GridMapFile::regenerate(
    const std::vector<const VomsServer*>& servers) {
  if (unchanged(servers)) return map_.size();
  built_from_.clear();
  for (const VomsServer* s : servers) {
    built_from_.push_back({s, s == nullptr ? 0 : s->version()});
  }

  std::unordered_map<std::string, GroupAccount> fresh;
  std::vector<std::string> refreshed_vos;
  for (const VomsServer* server : servers) {
    if (server == nullptr) continue;
    auto pol = policy_.find(server->vo());
    if (pol == policy_.end()) continue;  // site does not support this VO
    if (!server->available()) continue;  // keep previous entries
    refreshed_vos.push_back(server->vo());
    for (const std::string& dn : server->member_dns()) {
      fresh[dn] = pol->second;
    }
  }
  // Carry forward entries for VOs whose server did not answer.
  for (const auto& [dn, account] : map_) {
    const bool vo_refreshed =
        std::find(refreshed_vos.begin(), refreshed_vos.end(), account.vo) !=
        refreshed_vos.end();
    if (!vo_refreshed) fresh.emplace(dn, account);
  }
  map_ = std::move(fresh);
  return map_.size();
}

std::optional<GroupAccount> GridMapFile::map(const std::string& dn) const {
  auto it = map_.find(dn);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

}  // namespace grid3::vo
