#include "core/policy_audit.h"

#include <algorithm>
#include <map>

#include "mds/schema.h"
#include "util/table.h"

namespace grid3::core {

namespace {

/// Used/configured share ratio beyond which check_fair_share flags a VO.
constexpr double kFairShareTolerance = 3.0;

}  // namespace

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

AuditReport PolicyAuditor::audit(Time from, Time to) const {
  AuditReport report;
  report.sites_audited = grid_.site_count();
  for (auto&& chunk :
       {check_published_walltime(), check_required_attributes(),
        check_closed_shares(from, to), check_fair_share(from, to)}) {
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

std::vector<AuditFinding> PolicyAuditor::check_closed_shares(
    Time from, Time to) const {
  std::vector<AuditFinding> out;
  const auto& db = grid_.igoc().job_db();
  for (const auto& site : grid_.sites()) {
    const auto& cfg = site->scheduler().config();
    if (!cfg.closed_shares) continue;
    std::map<std::string, std::size_t> foreign;
    for (const auto& r : db.records()) {
      if (r.site != site->name() || !r.success) continue;
      if (r.finished < from || r.finished >= to) continue;
      if (r.vo == "exerciser") continue;  // runs under iVDGL credentials
      if (!cfg.vo_shares.contains(r.vo)) ++foreign[r.vo];
    }
    for (const auto& [vo, n] : foreign) {
      out.push_back({AuditSeverity::kViolation, site->name(),
                     "closed-shares",
                     std::to_string(n) + " jobs from unauthorized VO " + vo});
    }
  }
  return out;
}

std::vector<AuditFinding> PolicyAuditor::check_fair_share(Time from,
                                                         Time to) const {
  std::vector<AuditFinding> out;
  const auto& db = grid_.igoc().job_db();
  for (const auto& site : grid_.sites()) {
    const auto& shares = site->scheduler().config().vo_shares;
    if (shares.size() < 2) continue;  // nothing to compare
    // Achieved CPU-days per configured VO over the window.
    std::map<std::string, double> achieved;
    for (const auto& r : db.records()) {
      if (r.site != site->name() || !r.success) continue;
      if (r.finished < from || r.finished >= to) continue;
      if (shares.contains(r.vo)) achieved[r.vo] += r.runtime().to_days();
    }
    // Compare achieved ratios against configured ratios pairwise.
    for (auto a = shares.begin(); a != shares.end(); ++a) {
      for (auto b = std::next(a); b != shares.end(); ++b) {
        const double used_a = achieved[a->first];
        const double used_b = achieved[b->first];
        if (used_a < 1.0 || used_b < 1.0) continue;  // too little signal
        const double achieved_ratio = used_a / used_b;
        const double configured_ratio = a->second / b->second;
        const double skew = achieved_ratio / configured_ratio;
        if (skew > kFairShareTolerance || skew < 1.0 / kFairShareTolerance) {
          out.push_back(
              {AuditSeverity::kWarning, site->name(), "fair-share",
               a->first + ":" + b->first + " achieved " +
                   util::AsciiTable::num(achieved_ratio, 2) +
                   " vs configured " +
                   util::AsciiTable::num(configured_ratio, 2)});
        }
      }
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
