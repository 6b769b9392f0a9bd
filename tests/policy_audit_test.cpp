// Unit tests for the section 8 policy auditor.
#include <gtest/gtest.h>

#include "core/policy_audit.h"

namespace grid3::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Grid3 grid{sim, 909};

  Site& add(const std::string& name) {
    grid.add_vo("usatlas");
    SiteConfig cfg;
    cfg.name = name;
    cfg.owner_vo = "usatlas";
    cfg.cpus = 16;
    return grid.add_site(cfg, /*reliability=*/1000.0);
  }
};

TEST_F(AuditTest, CleanSitePassesAllChecks) {
  add("GOOD");
  const auto report = PolicyAuditor{grid}.audit();
  EXPECT_EQ(report.sites_audited, 1u);
  EXPECT_TRUE(report.clean());
}

TEST_F(AuditTest, WalltimeMismatchIsViolation) {
  Site& site = add("DRIFTED");
  // An admin shortened the queue limit without updating MDS.
  site.scheduler().set_max_walltime(Time::hours(12));
  PolicyAuditor auditor{grid};
  const auto findings = auditor.check_published_walltime();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, AuditSeverity::kViolation);
  EXPECT_EQ(findings[0].site, "DRIFTED");
  EXPECT_EQ(findings[0].check, "walltime-consistent");
}

TEST_F(AuditTest, MissingAttributeIsWarning) {
  add("GOOD");
  Site& site = add("SPARSE");
  // A down GRIS answers no query, so every required attribute is
  // missing there, and nowhere else.
  site.gris().set_available(false);
  const auto findings = PolicyAuditor{grid}.check_required_attributes();
  ASSERT_EQ(findings.size(), 6u);
  bool tmp_dir = false;
  for (const AuditFinding& f : findings) {
    EXPECT_EQ(f.severity, AuditSeverity::kWarning);
    EXPECT_EQ(f.site, "SPARSE");
    tmp_dir |= f.detail.find("Grid3TmpDir") != std::string::npos;
  }
  EXPECT_TRUE(tmp_dir);
}

TEST(AuditReport, SeverityCounting) {
  AuditReport report;
  report.findings = {{AuditSeverity::kWarning, "a", "c", "d"},
                     {AuditSeverity::kViolation, "a", "c", "d"},
                     {AuditSeverity::kWarning, "b", "c", "d"}};
  EXPECT_EQ(report.count(AuditSeverity::kWarning), 2u);
  EXPECT_EQ(report.count(AuditSeverity::kViolation), 1u);
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace grid3::core
