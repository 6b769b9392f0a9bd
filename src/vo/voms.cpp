#include "vo/voms.h"

#include <atomic>

namespace grid3::vo {

const char* to_string(Role r) {
  switch (r) {
    case Role::kUser: return "user";
    case Role::kAppAdmin: return "app-admin";
    case Role::kVoAdmin: return "vo-admin";
    case Role::kSoftware: return "software";
  }
  return "?";
}

Certificate CertificateAuthority::issue(const std::string& subject_dn,
                                        Time now, Time lifetime) {
  Certificate cert;
  cert.subject_dn = subject_dn;
  cert.issuer = name_;
  cert.not_before = now;
  cert.not_after = now + lifetime;
  cert.serial = next_serial_++;
  return cert;
}

bool CertificateAuthority::verify(const Certificate& cert, Time now) const {
  return cert.issuer == name_ && cert.within_validity(now);
}

void VomsServer::touch() {
  static std::atomic<std::uint64_t> last_version{0};
  version_ = ++last_version;
}

void VomsServer::add_member(const std::string& dn, Role role) {
  touch();
  if (!members_.contains(dn)) order_.push_back(dn);
  members_[dn] = role;
}

void VomsServer::set_available(bool up) {
  if (up == up_) return;
  touch();
  up_ = up;
}

bool VomsServer::is_member(const std::string& dn) const {
  return members_.contains(dn);
}

std::optional<Role> VomsServer::role_of(const std::string& dn) const {
  auto it = members_.find(dn);
  if (it == members_.end()) return std::nullopt;
  return it->second;
}

std::size_t VomsServer::count_role(Role r) const {
  std::size_t n = 0;
  for (const auto& [dn, role] : members_) {
    if (role == r) ++n;
  }
  return n;
}

std::optional<VomsProxy> issue_proxy(const VomsServer& server,
                                     const Certificate& identity, Time now,
                                     Time lifetime) {
  if (!server.available()) return std::nullopt;
  const auto role = server.role_of(identity.subject_dn);
  if (!role.has_value()) return std::nullopt;
  if (!identity.within_validity(now)) return std::nullopt;
  VomsProxy proxy;
  proxy.identity = identity;
  proxy.vo = server.vo();
  proxy.role = *role;
  proxy.expires = now + lifetime;
  return proxy;
}

}  // namespace grid3::vo
