// Unit tests for Pacman packaging: dependency resolution, install
// transactions, validation, certification.
#include <gtest/gtest.h>

#include "mds/gris.h"
#include "pacman/installer.h"
#include "pacman/package.h"
#include "pacman/vdt.h"

namespace grid3::pacman {
namespace {

Package make_pkg(std::string name, std::string version,
                 std::vector<std::string> deps = {}) {
  Package pkg;
  pkg.name = std::move(name);
  pkg.version = std::move(version);
  pkg.dependencies = std::move(deps);
  return pkg;
}

TEST(PackageCache, ResolveOrdersDependenciesFirst) {
  PackageCache cache;
  cache.add(make_pkg("a", "1", {"b", "c"}));
  cache.add(make_pkg("b", "1", {"c"}));
  cache.add(make_pkg("c", "1"));
  const auto order = cache.resolve("a");
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 3u);
  EXPECT_EQ((*order)[0]->name, "c");
  EXPECT_EQ((*order)[1]->name, "b");
  EXPECT_EQ((*order)[2]->name, "a");
}

TEST(PackageCache, SharedDependencyInstalledOnce) {
  PackageCache cache;
  cache.add(make_pkg("root", "1", {"x", "y"}));
  cache.add(make_pkg("x", "1", {"base"}));
  cache.add(make_pkg("y", "1", {"base"}));
  cache.add(make_pkg("base", "1"));
  const auto order = cache.resolve("root");
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 4u);  // base appears exactly once
}

TEST(PackageCache, CycleDetected) {
  PackageCache cache;
  cache.add(make_pkg("a", "1", {"b"}));
  cache.add(make_pkg("b", "1", {"a"}));
  EXPECT_FALSE(cache.resolve("a").has_value());
}

TEST(PackageCache, MissingDependencyFails) {
  PackageCache cache;
  cache.add(make_pkg("a", "1", {"ghost"}));
  EXPECT_FALSE(cache.resolve("a").has_value());
  EXPECT_FALSE(cache.resolve("unknown").has_value());
}

TEST(PackageCache, AddReplacesByName) {
  PackageCache cache;
  cache.add(make_pkg("a", "1"));
  cache.add(make_pkg("a", "2"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("a")->version, "2");
}

TEST(Vdt, BundleResolvesCompletely) {
  PackageCache cache;
  const std::string root = load_vdt_bundle(cache);
  EXPECT_EQ(root, "grid3-vdt");
  const auto order = cache.resolve(root);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 8u);
  // GSI underpins everything Globus; it must come before GRAM.
  std::size_t gsi = 0, gram = 0;
  for (std::size_t i = 0; i < order->size(); ++i) {
    if ((*order)[i]->name == "globus-gsi") gsi = i;
    if ((*order)[i]->name == "globus-gram") gram = i;
  }
  EXPECT_LT(gsi, gram);
}

TEST(Vdt, ApplicationPackageDependsOnVdt) {
  PackageCache cache;
  load_vdt_bundle(cache);
  add_application_package(cache, "gce-atlas", Time::minutes(20));
  const auto order = cache.resolve("app-gce-atlas");
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->back()->name, "app-gce-atlas");
  EXPECT_EQ(order->size(), 9u);
}

TEST(Installer, CleanInstallSucceeds) {
  PackageCache cache;
  Package pkg = make_pkg("pkg", "1");
  pkg.install_cost = Time::minutes(5);
  pkg.misconfig_probability = 0.0;
  cache.add(std::move(pkg));
  SiteInstaller installer{cache};
  util::Rng rng{1};
  const auto report = installer.install("pkg", rng);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.installed.size(), 1u);
  EXPECT_TRUE(report.latent_defects.empty());
  EXPECT_EQ(report.elapsed, Time::minutes(5));
}

TEST(Installer, MisconfigurationCaughtByValidationIsReinstalled) {
  PackageCache cache;
  Package flaky = make_pkg("flaky", "1");
  flaky.checks = {{"always-catches", 1.0}};
  flaky.misconfig_probability = 0.5;
  cache.add(std::move(flaky));
  SiteInstaller installer{cache};
  util::Rng rng{2};
  int caught = 0;
  for (int i = 0; i < 50; ++i) {
    const auto report = installer.install("flaky", rng);
    // With a perfect check, no latent defect can survive.
    EXPECT_TRUE(report.latent_defects.empty());
    caught += static_cast<int>(report.caught_defects.size());
  }
  EXPECT_GT(caught, 0);
}

TEST(Installer, UncheckedMisconfigurationGoesLatent) {
  PackageCache cache;
  Package sloppy = make_pkg("sloppy", "1");
  sloppy.checks = {};  // no validation at all
  sloppy.misconfig_probability = 1.0;
  cache.add(std::move(sloppy));
  SiteInstaller installer{cache};
  util::Rng rng{3};
  const auto report = installer.install("sloppy", rng);
  EXPECT_TRUE(report.success);
  ASSERT_EQ(report.latent_defects.size(), 1u);
  EXPECT_EQ(report.latent_defects[0], "sloppy");
}

TEST(Installer, GivesUpAfterMaxReinstalls) {
  PackageCache cache;
  Package cursed = make_pkg("cursed", "1");
  cursed.checks = {{"always-catches", 1.0}};
  cursed.misconfig_probability = 1.0;
  cache.add(std::move(cursed));
  SiteInstaller installer{cache};
  util::Rng rng{4};
  const auto report = installer.install("cursed", rng);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failed_package, "cursed");
  EXPECT_EQ(report.reinstalls, 2);  // two reinstalls, then it gives up
}

TEST(Installer, PublishWritesVdtAndAppAttributes) {
  InstallReport report;
  report.success = true;
  report.installed = {"globus-gram", "app-gce-atlas"};
  mds::Gris gris{"BNL"};
  SiteInstaller::publish(report, "1.1.12", gris, Time::zero());
  EXPECT_TRUE(gris.query(mds::grid3ext::kVdtVersion).has_value());
  EXPECT_TRUE(gris.query(mds::app_attribute("gce-atlas")).has_value());
}

TEST(Certification, CleanInstallCertifies) {
  InstallReport report;
  report.success = true;
  util::Rng rng{5};
  const auto cert = certify_site(report, rng);
  EXPECT_TRUE(cert.certified);
  EXPECT_EQ(cert.passed.size(), 5u);
}

TEST(Certification, FailedInstallNeverCertifies) {
  InstallReport report;
  report.success = false;
  util::Rng rng{6};
  const auto cert = certify_site(report, rng);
  EXPECT_FALSE(cert.certified);
}

TEST(Certification, LatentDefectsTripProbesSometimes) {
  InstallReport report;
  report.success = true;
  report.latent_defects = {"globus-gridftp", "globus-mds"};
  util::Rng rng{7};
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (!certify_site(report, rng).certified) ++failures;
  }
  EXPECT_GT(failures, 50);  // two latent defects usually trip something
}

}  // namespace
}  // namespace grid3::pacman
