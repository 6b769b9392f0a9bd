// A Grid3 site: the per-site service stack of section 5.1.
//
// Each site owns its worker cluster (batch scheduler), shared disk,
// GridFTP server, GRAM gatekeeper, grid-map file, GRIS, Ganglia gmond
// and MonALISA agent, wired to the site's WAN access link.  Sites are
// autonomous: local policy (walltime limits, VO shares, shared local
// load) lives here, not at the grid level.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "batch/scheduler.h"
#include "gram/gatekeeper.h"
#include "gridftp/gridftp.h"
#include "mds/gris.h"
#include "monitoring/bus.h"
#include "monitoring/ganglia.h"
#include "monitoring/monalisa.h"
#include "monitoring/site_catalog.h"
#include "net/network.h"
#include "pacman/installer.h"
#include "sim/simulation.h"
#include "srm/disk.h"
#include "srm/srm.h"
#include "util/rng.h"
#include "vo/gridmap.h"

namespace grid3::core {

enum class LrmsType { kCondor, kPbs, kLsf };

[[nodiscard]] const char* to_string(LrmsType t);

struct SitePolicy {
  Time max_walltime = Time::hours(72);
  /// Worker nodes can open outbound connections (section 6.4 req. 1).
  bool outbound = true;
  /// Dedicated to Grid3 vs shared with local users (section 7: ">60% of
  /// CPU resources are drawn from non-dedicated facilities").
  bool dedicated = false;
  /// Fraction of slots local users occupy on average at a shared site.
  double local_load = 0.2;
  std::map<std::string, double> vo_shares;
  bool closed_shares = false;
};

struct SiteConfig {
  std::string name;
  std::string location;   ///< institution label for the status catalog
  std::string owner_vo;   ///< VO that contributed the site
  int cpus = 64;
  LrmsType lrms = LrmsType::kCondor;
  Bytes disk = Bytes::tb(2);
  Bandwidth wan = Bandwidth::mbps(155);  ///< access link (both directions)
  SitePolicy policy;
  bool deploy_srm = false;  ///< optional per-VO storage element
};

class Site {
 public:
  Site(sim::Simulation& sim, net::Network& network,
       monitoring::MetricBus& bus, const vo::CertificateAuthority& ca,
       gridftp::GridFtpClient& ftp_client, SiteConfig cfg, util::Rng rng);
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] const SiteConfig& config() const { return cfg_; }

  /// Run the Pacman install + certification pipeline; publishes static
  /// attributes on success.  A site must install before it can serve.
  pacman::CertificationResult install(const pacman::PackageCache& cache,
                                      const std::string& root_package);
  [[nodiscard]] bool installed() const { return installed_; }
  [[nodiscard]] const pacman::InstallReport& install_report() const {
    return install_report_;
  }

  /// Install a grid-enabled application package and publish its MDS
  /// attribute (the automated user-level installs of section 6.1).
  bool install_application(const pacman::PackageCache& cache,
                           const std::string& app_name);

  /// Declare VO support + group account and refresh the grid-map file.
  void support_vo(const std::string& vo_name);
  void refresh_gridmap(const std::vector<const vo::VomsServer*>& servers);

  /// Begin the periodic monitoring/publication loop (gmond samples, GRIS
  /// dynamic attributes, MonALISA VO activity) and local-user background
  /// load at shared sites.
  void start_services();
  void stop_services();

  /// Functional probes for the Site Status Catalog.
  [[nodiscard]] std::vector<monitoring::ProbeResult> run_probes() const;

  // --- service accessors ---
  [[nodiscard]] batch::BatchScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const batch::BatchScheduler& scheduler() const {
    return *scheduler_;
  }
  [[nodiscard]] gram::Gatekeeper& gatekeeper() { return *gatekeeper_; }
  [[nodiscard]] gridftp::GridFtpServer& ftp() { return ftp_server_; }
  [[nodiscard]] srm::DiskVolume& disk() { return disk_; }
  [[nodiscard]] mds::Gris& gris() { return gris_; }
  [[nodiscard]] const vo::GridMapFile& gridmap() const { return gridmap_; }
  [[nodiscard]] srm::StorageResourceManager* storage_element() {
    return srm_ ? srm_.get() : nullptr;
  }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Grid jobs currently running (busy slots not held by a running local
  /// job) / live CPU count (sites introduce and withdraw nodes, so this
  /// tracks the scheduler, not the config).
  [[nodiscard]] int grid_jobs_running() const;
  [[nodiscard]] int cpus() const { return scheduler_->total_slots(); }

 private:
  void publish_static();
  void publish_dynamic();
  void report_vo_activity();
  void sample_local_load();

  /// A supported VO's MonALISA running-jobs gauge and scheduler row,
  /// resolved on the first sweep that reports it, so building a fabric
  /// interns no metric keys.
  struct VoGauge {
    std::string vo;
    monitoring::MetricId running;
    batch::VoIndex batch_vo;
  };

  sim::Simulation& sim_;
  monitoring::MetricBus& bus_;
  SiteConfig cfg_;
  util::Rng rng_;
  net::NodeId node_;
  srm::DiskVolume disk_;
  gridftp::GridFtpServer ftp_server_;
  std::unique_ptr<batch::BatchScheduler> scheduler_;
  vo::GridMapFile gridmap_;
  std::unique_ptr<gram::Gatekeeper> gatekeeper_;
  mds::Gris gris_;
  monitoring::GangliaGmond gmond_;
  monitoring::MonalisaAgent ml_agent_;
  std::unique_ptr<srm::StorageResourceManager> srm_;
  std::unique_ptr<sim::PeriodicProcess> monitor_loop_;
  std::unique_ptr<sim::PeriodicProcess> local_load_loop_;
  /// Sorted by VO name, the order the agents report in.
  std::vector<VoGauge> vo_gauges_;
  /// Site-wide MonALISA gauge; invalid until the first sweep.
  monitoring::MetricId gatekeeper_load_;
  pacman::InstallReport install_report_;
  bool installed_ = false;
  /// The scheduler row of local users' jobs.
  batch::VoIndex local_vo_;
  // Drain-rate differentiation baseline (see publish_dynamic).
  Bytes last_released_;
  Time last_drain_sample_;
  bool drain_sampled_ = false;
};

}  // namespace grid3::core
