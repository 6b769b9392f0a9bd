// The Grid3 site roster and fabric bootstrap.
//
// 27 sites shaped after the deployment the paper describes: two Tier1
// centers (BNL for ATLAS, FNAL for CMS), a band of university Tier2s,
// and many small shared clusters.  More than 60% of CPUs come from
// non-dedicated facilities (section 7), scheduler types span Condor,
// OpenPBS and LSF (section 5), and walltime limits vary so that the long
// OSCAR jobs of section 6.2 cannot run everywhere.
#pragma once

#include <string>
#include <vector>

#include "core/grid3.h"
#include "core/site.h"

namespace grid3::core {

/// The full 27-site roster.  `cpu_scale` scales every site's CPU count
/// (and disk) for fast tests; 1.0 reproduces the ~2600-CPU deployment.
[[nodiscard]] std::vector<SiteConfig> grid3_roster(double cpu_scale = 1.0);

/// Application package names for the ten Grid3 applications.
namespace app {
inline constexpr const char* kAtlasGce = "gce-atlas";
inline constexpr const char* kCmsMop = "mop-cms";
inline constexpr const char* kSdssCoadd = "sdss-coadd";
inline constexpr const char* kLigoPulsar = "ligo-pulsar";
inline constexpr const char* kBtevSim = "btev-mc";
inline constexpr const char* kSnb = "snb";
inline constexpr const char* kGadu = "gadu";
inline constexpr const char* kExerciser = "exerciser";
inline constexpr const char* kEntrada = "entrada";
inline constexpr const char* kNetloggerFtp = "netlogger-gridftp";
}  // namespace app

struct AssembleOptions {
  double cpu_scale = 1.0;
  /// Fabric replication factor: 1 = the historical 27-site roster;
  /// N > 1 appends N-1 renamed copies of every roster template
  /// ("<name>_R1", "<name>_R2", ...) -- the "Grid30" 10x-scale fabric
  /// (270 sites, ~29k CPUs at cpu_scale 1).  Application install
  /// counts scale with the replica count so per-VO site pools keep
  /// their Table 1 proportions.
  int roster_replicas = 1;
  /// Sites flakier than nominal by this reliability factor band.
  double min_reliability = 0.7;
  double max_reliability = 2.0;
};

/// User credentials grouped by VO, as returned from assembly.
struct VoUsers {
  std::string vo;
  std::vector<vo::Certificate> users;       ///< ordinary members
  std::vector<vo::Certificate> app_admins;  ///< perform most submissions
};

struct Assembled {
  std::vector<VoUsers> users;  ///< one entry per canonical VO
  ExternalHost* cern = nullptr;
  ExternalHost* ligo_hanford = nullptr;
};

/// Build the production fabric: six VOs, external archives, the Table 1
/// user population (102 authorized users), the full roster (installed +
/// certified + monitored + failure-injected), application installs on
/// site subsets sized per Table 1, and central operations loops.
Assembled assemble_grid3(Grid3& grid, const AssembleOptions& opts = {});

/// Sites (by roster position) hosting a given application, sized to the
/// per-VO "Grid3 Sites Used" counts of Table 1 (times `replicas` on a
/// replicated fabric, so install density tracks the fabric scale).
[[nodiscard]] std::vector<std::string> application_sites(
    const std::string& app_name,
    const std::vector<SiteConfig>& roster, std::size_t replicas = 1);

/// `base` plus `replicas - 1` renamed copies of every template.
[[nodiscard]] std::vector<SiteConfig> replicate_roster(
    std::vector<SiteConfig> base, int replicas);

}  // namespace grid3::core
