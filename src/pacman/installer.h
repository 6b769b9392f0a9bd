// Site installation, validation, and certification pipeline.
//
// An install transaction resolves the dependency closure, "installs" each
// package (accumulating wall-clock cost), randomly introduces latent
// misconfigurations, and runs the packages' validation checks.  Checks
// that fire force a reinstall of the offending package; defects that slip
// past validation remain latent and surface later as the site-problem job
// failures sections 6.1/6.2 describe.
#pragma once

#include <string>
#include <vector>

#include "mds/gris.h"
#include "pacman/package.h"
#include "util/rng.h"

namespace grid3::pacman {

struct InstallOptions {
  /// Multiplier on every package's misconfig probability (a careful admin
  /// reduces it; a rushed install raises it).
  double misconfig_scale = 1.0;
};

struct InstallReport {
  bool success = false;
  std::vector<std::string> installed;       ///< in install order
  std::vector<std::string> latent_defects;  ///< misconfigured, undetected
  std::vector<std::string> caught_defects;  ///< misconfigured, fixed
  std::string failed_package;               ///< set when success == false
  Time elapsed;
  int reinstalls = 0;
};

class SiteInstaller {
 public:
  explicit SiteInstaller(const PackageCache& cache) : cache_{cache} {}

  /// Run a full install transaction for `root` (typically "grid3-vdt").
  [[nodiscard]] InstallReport install(const std::string& root,
                                      util::Rng& rng,
                                      const InstallOptions& opts = {}) const;

  /// Publish the install result into a site GRIS: VDT version/location
  /// plus one Grid3App-<name> attribute per installed top-level app.
  static void publish(const InstallReport& report, const std::string& version,
                      mds::Gris& gris, Time now);

 private:
  const PackageCache& cache_;
};

/// Certification: the documented post-install procedure (section 5.1).
/// Runs a fixed battery of functional probes; a site is certified when
/// all pass.
struct CertificationResult {
  bool certified = false;
  std::vector<std::string> passed;
  std::vector<std::string> failed;
};

[[nodiscard]] CertificationResult certify_site(const InstallReport& install,
                                               util::Rng& rng);

}  // namespace grid3::pacman
