// Virtual-organization management: X.509-style identities, a certificate
// authority, and per-VO VOMS attribute servers (paper section 5.3).
//
// Grid3 used the EDG VOMS: each VO runs a membership server; sites
// periodically pull the membership lists to generate local grid-map
// files that map certificate DNs onto VO group accounts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace grid3::vo {

/// An X.509-style identity certificate.  No real crypto: validity is a
/// lifetime window, which is all the failure modes the simulation needs
/// (expired proxies were a classic Grid3 headache).
struct Certificate {
  std::string subject_dn;
  std::string issuer;
  Time not_before;
  Time not_after;
  std::uint64_t serial = 0;

  [[nodiscard]] bool within_validity(Time now) const {
    return now >= not_before && now < not_after;
  }
};

/// Certificate authority issuing user and host certificates.
class CertificateAuthority {
 public:
  explicit CertificateAuthority(std::string name) : name_{std::move(name)} {}

  [[nodiscard]] const std::string& name() const { return name_; }

  Certificate issue(const std::string& subject_dn, Time now, Time lifetime);

  /// Chain check: issuer match and validity window.
  [[nodiscard]] bool verify(const Certificate& cert, Time now) const;

  [[nodiscard]] std::size_t issued_count() const { return next_serial_ - 1; }

 private:
  std::string name_;
  std::uint64_t next_serial_ = 1;
};

/// Roles a VO assigns its members.  The paper notes ~10% of users are
/// application administrators who perform most submissions.
enum class Role { kUser, kAppAdmin, kVoAdmin, kSoftware };

[[nodiscard]] const char* to_string(Role r);

/// Per-VO membership server (VOMS).  Sites query it when regenerating
/// grid-map files; it can be taken down to model service failures.
class VomsServer {
 public:
  explicit VomsServer(std::string vo_name) : vo_{std::move(vo_name)} {
    touch();
  }

  [[nodiscard]] const std::string& vo() const { return vo_; }

  void add_member(const std::string& dn, Role role);
  [[nodiscard]] bool is_member(const std::string& dn) const;
  [[nodiscard]] std::optional<Role> role_of(const std::string& dn) const;
  /// Member DNs in the order they joined.
  [[nodiscard]] const std::vector<std::string>& member_dns() const {
    return order_;
  }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

  /// Count of members with a given role.
  [[nodiscard]] std::size_t count_role(Role r) const;

  void set_available(bool up);
  [[nodiscard]] bool available() const { return up_; }

  /// Changes whenever the members, a role or the availability change,
  /// to a value drawn from one process-wide sequence (construction draws
  /// one too), so two different server states never share a version.
  /// A grid-map rebuild compares it with the version it last read.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  void touch();

  std::string vo_;
  bool up_ = true;
  std::uint64_t version_ = 0;
  std::unordered_map<std::string, Role> members_;
  std::vector<std::string> order_;  // deterministic iteration order
};

/// Short-lived proxy credential carrying VOMS attributes, as presented to
/// gatekeepers by Condor-G.
struct VomsProxy {
  Certificate identity;
  std::string vo;
  Role role = Role::kUser;
  Time expires;

  [[nodiscard]] bool valid(Time now) const {
    return now < expires && identity.within_validity(now);
  }
};

/// Issue a proxy for a VO member.  Fails (nullopt) when the VOMS server is
/// down or the DN is not a member.
[[nodiscard]] std::optional<VomsProxy> issue_proxy(
    const VomsServer& server, const Certificate& identity, Time now,
    Time lifetime = Time::hours(12));

}  // namespace grid3::vo
