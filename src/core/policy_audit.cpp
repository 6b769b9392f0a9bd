#include "core/policy_audit.h"

#include <algorithm>

#include "mds/schema.h"

namespace grid3::core {

const char* to_string(AuditSeverity s) {
  switch (s) {
    case AuditSeverity::kInfo: return "info";
    case AuditSeverity::kWarning: return "warning";
    case AuditSeverity::kViolation: return "VIOLATION";
  }
  return "?";
}

std::size_t AuditReport::count(AuditSeverity s) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const AuditFinding& f) { return f.severity == s; }));
}

AuditReport PolicyAuditor::audit() const {
  AuditReport report;
  report.sites_audited = grid_.site_count();
  for (auto&& chunk :
       {check_published_walltime(), check_required_attributes()}) {
    report.findings.insert(report.findings.end(), chunk.begin(),
                           chunk.end());
  }
  return report;
}

std::vector<AuditFinding> PolicyAuditor::check_published_walltime() const {
  std::vector<AuditFinding> out;
  for (const auto& site : grid_.sites()) {
    const auto published =
        site->gris().query(mds::glue::kMaxWallClockMinutes);
    if (!published.has_value()) {
      out.push_back({AuditSeverity::kWarning, site->name(),
                     "walltime-published",
                     "site does not publish GlueCEPolicyMaxWallClockTime"});
      continue;
    }
    const auto minutes = std::get<std::int64_t>(published->value);
    const auto enforced =
        static_cast<std::int64_t>(site->scheduler().max_walltime().to_minutes());
    if (minutes != enforced) {
      out.push_back(
          {AuditSeverity::kViolation, site->name(), "walltime-consistent",
           "published " + std::to_string(minutes) + " min but the " +
               site->scheduler().lrms_type() + " queue enforces " +
               std::to_string(enforced) + " min"});
    }
  }
  return out;
}

std::vector<AuditFinding> PolicyAuditor::check_required_attributes() const {
  // The attributes the planner and application installers rely on
  // (sections 5.1 / 6.4): missing ones silently shrink a site's workload.
  static constexpr std::string_view kRequired[] = {
      mds::glue::kTotalCpus,          mds::glue::kFreeCpus,
      mds::glue::kMaxWallClockMinutes, mds::grid3ext::kAppDir,
      mds::grid3ext::kTmpDir,          mds::grid3ext::kOutboundConnectivity,
  };
  std::vector<AuditFinding> out;
  for (const auto& site : grid_.sites()) {
    for (const auto key : kRequired) {
      if (!site->gris().query(key).has_value()) {
        out.push_back({AuditSeverity::kWarning, site->name(),
                       "attribute-published",
                       "missing " + std::string{key}});
      }
    }
  }
  return out;
}

}  // namespace grid3::core
