#include "pacman/installer.h"

#include <algorithm>

namespace grid3::pacman {

namespace {

/// Validation-triggered reinstalls of one package before giving up.
constexpr int kMaxReinstalls = 2;

}  // namespace

InstallReport SiteInstaller::install(const std::string& root, util::Rng& rng,
                                     const InstallOptions& opts) const {
  InstallReport report;
  auto order = cache_.resolve(root);
  if (!order.has_value()) {
    report.failed_package = root;
    return report;
  }

  for (const Package* pkg : *order) {
    int attempts = 0;
    bool settled = false;
    while (!settled) {
      report.elapsed += pkg->install_cost;
      const bool misconfigured =
          rng.chance(std::min(1.0, pkg->misconfig_probability *
                                       opts.misconfig_scale));
      if (!misconfigured) {
        settled = true;
        break;
      }
      // Run the package's validation checks; any hit reveals the defect.
      bool detected = false;
      for (const ValidationCheck& check : pkg->checks) {
        if (rng.chance(check.detection_power)) {
          detected = true;
          break;
        }
      }
      if (!detected) {
        report.latent_defects.push_back(pkg->name);
        settled = true;
        break;
      }
      report.caught_defects.push_back(pkg->name);
      if (++attempts > kMaxReinstalls) {
        report.failed_package = pkg->name;
        return report;
      }
      ++report.reinstalls;  // reinstall loop continues
    }
    report.installed.push_back(pkg->name);
  }
  report.success = true;
  return report;
}

void SiteInstaller::publish(const InstallReport& report,
                            const std::string& version, mds::Gris& gris,
                            Time now) {
  if (!report.success) return;
  gris.publish(mds::grid3ext::kVdtVersion, version, now);
  gris.publish(mds::grid3ext::kVdtLocation, std::string{"/opt/vdt"}, now);
  for (const std::string& pkg : report.installed) {
    // Application packages use the Grid3App-<name> convention; middleware
    // packages publish their provided service names elsewhere.
    if (pkg.starts_with("app-")) {
      gris.publish(mds::app_attribute(pkg.substr(4)), version, now);
    }
  }
}

CertificationResult certify_site(const InstallReport& install,
                                 util::Rng& rng) {
  CertificationResult result;
  if (!install.success) {
    result.failed.push_back("install-incomplete");
    return result;
  }
  // The documented battery: authentication, job submission round-trip,
  // file transfer, information publication, monitoring visibility.
  static constexpr const char* kProbes[] = {
      "gsi-authentication", "gram-job-roundtrip", "gridftp-loopback",
      "mds-publication", "monitoring-heartbeat"};
  for (const char* probe : kProbes) {
    // A latent defect trips the relevant functional probe with moderate
    // probability; otherwise probes pass.
    bool tripped = false;
    for (const std::string& defect : install.latent_defects) {
      (void)defect;
      if (rng.chance(0.25)) {
        tripped = true;
        break;
      }
    }
    if (tripped) {
      result.failed.emplace_back(probe);
    } else {
      result.passed.emplace_back(probe);
    }
  }
  result.certified = result.failed.empty();
  return result;
}

}  // namespace grid3::pacman
