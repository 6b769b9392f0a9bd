// Unit tests for the section 8 policy auditor.
#include <gtest/gtest.h>

#include "core/policy_audit.h"
#include "mds/schema.h"

namespace grid3::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Grid3 grid{sim, 909};

  Site& add(const std::string& name, SitePolicy policy = {}) {
    grid.add_vo("usatlas");
    grid.add_vo("uscms");
    SiteConfig cfg;
    cfg.name = name;
    cfg.owner_vo = "usatlas";
    cfg.cpus = 16;
    cfg.policy = policy;
    return grid.add_site(cfg, /*reliability=*/1000.0);
  }

  void record_job(const std::string& site, const std::string& vo,
                  double runtime_h) {
    monitoring::JobRecord r;
    r.vo = vo;
    r.site = site;
    r.user_dn = "/CN=u";
    r.submitted = r.started = Time::hours(1);
    r.finished = Time::hours(1.0 + runtime_h);
    r.success = true;
    grid.igoc().job_db().insert(std::move(r));
  }
};

TEST_F(AuditTest, CleanSitePassesAllChecks) {
  add("GOOD");
  const auto report =
      PolicyAuditor{grid}.audit(Time::zero(), Time::days(30));
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
  Site& site = add("SPARSE");
  site.gris().retract(mds::grid3ext::kTmpDir);
  const auto findings = PolicyAuditor{grid}.check_required_attributes();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, AuditSeverity::kWarning);
  EXPECT_NE(findings[0].detail.find("Grid3TmpDir"), std::string::npos);
}

TEST_F(AuditTest, ClosedShareViolationDetected) {
  SitePolicy policy;
  policy.vo_shares = {{"usatlas", 1.0}};
  policy.closed_shares = true;
  add("CLOSED", policy);
  // A uscms job somehow ran there (e.g. stale grid-map mapping).
  record_job("CLOSED", "uscms", 2.0);
  record_job("CLOSED", "usatlas", 2.0);
  const auto findings =
      PolicyAuditor{grid}.check_closed_shares(Time::zero(), Time::days(30));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, AuditSeverity::kViolation);
  EXPECT_NE(findings[0].detail.find("uscms"), std::string::npos);
}

TEST_F(AuditTest, FairShareSkewFlagged) {
  SitePolicy policy;
  policy.vo_shares = {{"usatlas", 1.0}, {"uscms", 1.0}};
  add("SKEWED", policy);
  // Equal shares configured, but ATLAS took 10x the CPU.
  for (int i = 0; i < 10; ++i) record_job("SKEWED", "usatlas", 24.0);
  record_job("SKEWED", "uscms", 24.0);
  const auto findings =
      PolicyAuditor{grid}.check_fair_share(Time::zero(), Time::days(30));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "fair-share");
}

TEST_F(AuditTest, BalancedUsageWithinTolerancePasses) {
  SitePolicy policy;
  policy.vo_shares = {{"usatlas", 2.0}, {"uscms", 1.0}};
  add("BALANCED", policy);
  for (int i = 0; i < 4; ++i) record_job("BALANCED", "usatlas", 24.0);
  for (int i = 0; i < 2; ++i) record_job("BALANCED", "uscms", 24.0);
  EXPECT_TRUE(PolicyAuditor{grid}
                  .check_fair_share(Time::zero(), Time::days(30))
                  .empty());
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
