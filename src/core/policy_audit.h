// Policy auditing (paper section 8, lessons learned):
//
//   "Job Execution Policies: Tools should be deployed and analyses done
//    to check that the current Grid3 job policies are being properly
//    enforced."
//   "Job Resource Requirements: Sites should publish more information
//    about job execution and resource usage policies, such as maximum
//    CPU time allowed."
//
// The auditor checks, per site: (a) that the published GLUE walltime
// limit matches the scheduler's enforced limit; and (b) that every
// policy attribute applications rely on is actually published.  Which
// VOs a site admits is its grid-map file's, built from VOMS, so there is
// no per-VO share to audit.
#pragma once

#include <string>
#include <vector>

#include "core/grid3.h"

namespace grid3::core {

enum class AuditSeverity { kInfo, kWarning, kViolation };

[[nodiscard]] const char* to_string(AuditSeverity s);

struct AuditFinding {
  AuditSeverity severity = AuditSeverity::kInfo;
  std::string site;
  std::string check;
  std::string detail;
};

struct AuditReport {
  std::vector<AuditFinding> findings;
  std::size_t sites_audited = 0;

  [[nodiscard]] std::size_t count(AuditSeverity s) const;
  [[nodiscard]] bool clean() const {
    return count(AuditSeverity::kViolation) == 0;
  }
};

class PolicyAuditor {
 public:
  explicit PolicyAuditor(Grid3& grid) : grid_{grid} {}

  /// Run every check over all sites.
  [[nodiscard]] AuditReport audit() const;

  // Individual checks, exposed for targeted use and tests.
  [[nodiscard]] std::vector<AuditFinding> check_published_walltime() const;
  [[nodiscard]] std::vector<AuditFinding> check_required_attributes() const;

 private:
  Grid3& grid_;
};

}  // namespace grid3::core
