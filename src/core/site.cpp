#include "core/site.h"

#include <algorithm>

#include "mds/schema.h"
#include "pacman/vdt.h"

namespace grid3::core {

const char* to_string(LrmsType t) {
  switch (t) {
    case LrmsType::kCondor: return "condor";
    case LrmsType::kPbs: return "pbs";
    case LrmsType::kLsf: return "lsf";
  }
  return "?";
}

namespace {

/// Period of the monitor sweep: gmond samples, GRIS dynamic attributes
/// and MonALISA agent reports.
constexpr Time kMonitorPeriod = Time::minutes(5);

/// Group the background jobs of a shared site's local users run under.
constexpr const char* kLocalVo = "local";

std::unique_ptr<batch::BatchScheduler> make_scheduler(sim::Simulation& sim,
                                                      const SiteConfig& cfg) {
  batch::SchedulerConfig sc;
  sc.site_name = cfg.name;
  sc.slots = cfg.cpus;
  sc.max_walltime = cfg.policy.max_walltime;
  sc.vo_shares = cfg.policy.vo_shares;
  sc.closed_shares = cfg.policy.closed_shares;
  switch (cfg.lrms) {
    case LrmsType::kCondor:
      return std::make_unique<batch::CondorScheduler>(sim, sc);
    case LrmsType::kPbs:
      return std::make_unique<batch::PbsScheduler>(sim, sc);
    case LrmsType::kLsf:
      return std::make_unique<batch::LsfScheduler>(sim, sc);
  }
  return nullptr;
}

}  // namespace

Site::Site(sim::Simulation& sim, net::Network& network,
           monitoring::MetricBus& bus, const vo::CertificateAuthority& ca,
           gridftp::GridFtpClient& ftp_client, SiteConfig cfg, util::Rng rng)
    : sim_{sim},
      bus_{bus},
      cfg_{std::move(cfg)},
      rng_{rng},
      node_{network.add_node({cfg_.wan, cfg_.wan,
                              cfg_.policy.outbound})},
      disk_{cfg_.name + ":/data", cfg_.disk},
      ftp_server_{cfg_.name, node_},
      scheduler_{make_scheduler(sim, cfg_)},
      gris_{cfg_.name},
      gmond_{cfg_.name, bus,
             [this] {
               monitoring::HostMetrics m;
               m.cpus_total = scheduler_->total_slots();
               m.cpus_busy = scheduler_->busy_slots();
               m.load_one =
                   gatekeeper_ ? gatekeeper_->one_minute_load() : 0.0;
               m.disk_free_gb = disk_.free().to_gb();
               return m;
             }},
      ml_agent_{cfg_.name, bus} {
  local_vo_ = scheduler_->vo_index(kLocalVo);
  gram::GatekeeperConfig gkc;
  gkc.site = cfg_.name;
  gatekeeper_ = std::make_unique<gram::Gatekeeper>(
      sim_, gkc, *scheduler_, gridmap_, ca, ftp_client, ftp_server_, disk_);
  if (cfg_.deploy_srm) {
    srm_ = std::make_unique<srm::StorageResourceManager>(cfg_.name + "-se",
                                                         disk_);
  }
}

Site::~Site() { stop_services(); }

pacman::CertificationResult Site::install(const pacman::PackageCache& cache,
                                          const std::string& root_package) {
  pacman::SiteInstaller installer{cache};
  // Admin care varies: some installs are meticulous, others rushed.
  pacman::InstallOptions opts;
  opts.misconfig_scale = rng_.uniform(0.5, 3.0);
  install_report_ = installer.install(root_package, rng_, opts);
  auto cert = pacman::certify_site(install_report_, rng_);
  if (install_report_.success && cert.certified) {
    installed_ = true;
    publish_static();
    // Latent (undetected) misconfigurations degrade job survival at this
    // site until an admin eventually notices and reinstalls.
    const auto defects =
        static_cast<double>(install_report_.latent_defects.size());
    gatekeeper_->set_environment_error_rate(0.08 * defects);
    gatekeeper_->set_submission_flake_rate(0.08 + 0.05 * defects);
  }
  return cert;
}

bool Site::install_application(const pacman::PackageCache& cache,
                               const std::string& app_name) {
  const pacman::Package* pkg = cache.find("app-" + app_name);
  if (pkg == nullptr || !installed_) return false;
  pacman::SiteInstaller installer{cache};
  // Application admins re-run failed installs (the automated user-level
  // installation of section 6.1 retried until the smoke test passed).
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (installer.install(pkg->name, rng_).success) {
      gris_.publish(mds::app_attribute(app_name), pkg->version, sim_.now());
      return true;
    }
  }
  return false;
}

void Site::support_vo(const std::string& vo_name) {
  // Group-account naming convention (section 5.3): e.g. "usatlas1".
  gridmap_.support_vo(vo_name, {vo_name + "1", vo_name});
  auto it = std::lower_bound(
      vo_gauges_.begin(), vo_gauges_.end(), vo_name,
      [](const VoGauge& g, const std::string& vo) { return g.vo < vo; });
  if (it == vo_gauges_.end() || it->vo != vo_name) {
    vo_gauges_.insert(it, {vo_name, {}, {}});
  }
}

void Site::refresh_gridmap(
    const std::vector<const vo::VomsServer*>& servers) {
  gridmap_.regenerate(servers);
}

void Site::publish_static() {
  const Time now = sim_.now();
  gris_.publish(mds::glue::kSiteName, cfg_.name, now);
  gris_.publish(mds::glue::kTotalCpus,
                static_cast<std::int64_t>(cfg_.cpus), now);
  gris_.publish(mds::glue::kLrmsType, std::string{to_string(cfg_.lrms)}, now);
  gris_.publish(mds::glue::kMaxWallClockMinutes,
                static_cast<std::int64_t>(cfg_.policy.max_walltime.to_minutes()),
                now);
  gris_.publish(mds::grid3ext::kAppDir, std::string{"/grid3/app"}, now);
  gris_.publish(mds::grid3ext::kTmpDir, std::string{"/grid3/tmp"}, now);
  gris_.publish(mds::grid3ext::kDataDir, std::string{"/grid3/data"}, now);
  gris_.publish(mds::grid3ext::kSiteOwnerVo, cfg_.owner_vo, now);
  gris_.publish(mds::grid3ext::kOutboundConnectivity, cfg_.policy.outbound,
                now);
  pacman::SiteInstaller::publish(install_report_, pacman::kVdtVersion, gris_,
                                 now);
  publish_dynamic();
}

void Site::publish_dynamic() {
  using mds::DynamicAttr;
  const Time now = sim_.now();
  gris_.publish(DynamicAttr::kTotalCpus,
                static_cast<std::int64_t>(scheduler_->total_slots()), now);
  gris_.publish(DynamicAttr::kFreeCpus,
                static_cast<std::int64_t>(scheduler_->free_slots()), now);
  gris_.publish(DynamicAttr::kRunningJobs,
                static_cast<std::int64_t>(scheduler_->busy_slots()), now);
  gris_.publish(DynamicAttr::kWaitingJobs,
                static_cast<std::int64_t>(scheduler_->queued_count()), now);
  gris_.publish(DynamicAttr::kSeAvailableGb, disk_.free().to_gb(), now);
  gris_.publish(DynamicAttr::kSeTotalGb, disk_.capacity().to_gb(), now);
  // SE drain rate: GB released (tape migration, cleanup) per hour since
  // the last sample.  First sample publishes 0 (no baseline interval).
  double drain_gb_per_hour = 0.0;
  if (drain_sampled_) {
    const double dt_hours = (now - last_drain_sample_).to_hours();
    if (dt_hours > 0.0) {
      drain_gb_per_hour =
          (disk_.released_total() - last_released_).to_gb() / dt_hours;
    }
  }
  gris_.publish(DynamicAttr::kSeDrainGbPerHour, drain_gb_per_hour, now);
  last_released_ = disk_.released_total();
  last_drain_sample_ = now;
  drain_sampled_ = true;
}

void Site::start_services() {
  if (monitor_loop_) return;
  monitor_loop_ = std::make_unique<sim::PeriodicProcess>(
      sim_, kMonitorPeriod, [this] {
        gmond_.sample(sim_.now());
        publish_dynamic();
        report_vo_activity();
        return true;
      });
  monitor_loop_->start(Time::seconds(rng_.uniform(0.0, 60.0)));

  if (!cfg_.policy.dedicated && cfg_.policy.local_load > 0.0) {
    local_load_loop_ = std::make_unique<sim::PeriodicProcess>(
        sim_, Time::minutes(30), [this] {
          sample_local_load();
          return true;
        });
    local_load_loop_->start(Time::minutes(rng_.uniform(0.0, 30.0)));
  }
}

void Site::report_vo_activity() {
  // MonALISA VO-activity agents (section 5.2: "custom agents ... collect
  // VO-specific activity at sites such as jobs run, compute element
  // usage, and I/O").  Only the gauges something reads are reported:
  // each VO's running jobs (MdViewer's crosscheck) and the gatekeeper
  // load (the broker's ranking).  The paper's I/O figures come from the
  // ACDC transfer records, not from an agent gauge.
  namespace ml = monitoring::mlmetric;
  if (!gatekeeper_load_.valid()) {
    gatekeeper_load_ = ml_agent_.resolve(ml::kGatekeeperLoad);
  }
  const Time now = sim_.now();
  for (VoGauge& g : vo_gauges_) {
    if (!g.running.valid()) {
      g.running = ml_agent_.resolve(
          monitoring::vo_metric(ml::kVoJobsRunning, g.vo));
      g.batch_vo = scheduler_->vo_index(g.vo);
    }
    ml_agent_.report(
        g.running, now,
        static_cast<double>(scheduler_->running_for_vo(g.batch_vo)));
  }
  ml_agent_.report(gatekeeper_load_, now, gatekeeper_->one_minute_load());
}

void Site::stop_services() {
  if (monitor_loop_) monitor_loop_->stop();
  if (local_load_loop_) local_load_loop_->stop();
}

void Site::sample_local_load() {
  // Keep roughly local_load * cpus slots busy with local (non-grid) work:
  // top up with short local jobs when below target.
  const int target = static_cast<int>(
      cfg_.policy.local_load *
      static_cast<double>(scheduler_->total_slots()));
  // Local jobs need no callback: the scheduler counts them while they
  // are queued or running, and a rejected one is never counted.
  const int deficit = target - scheduler_->outstanding_for_vo(local_vo_);
  for (int i = 0; i < deficit; ++i) {
    batch::JobRequest req;
    req.vo_index = local_vo_;
    const Time runtime = Time::hours(rng_.exponential(2.0));
    req.requested_walltime = runtime + Time::hours(1);
    req.actual_runtime = runtime;
    req.priority = 1;  // local users outrank grid jobs on shared nodes
    scheduler_->submit(req, {});
  }
}

std::vector<monitoring::ProbeResult> Site::run_probes() const {
  // The Site Status Catalog's functional battery (section 5.2).
  std::vector<monitoring::ProbeResult> out;
  out.push_back({"installed", installed_});
  out.push_back({"gatekeeper", gatekeeper_->available()});
  out.push_back({"gridftp", ftp_server_.available()});
  out.push_back({"gris", gris_.available()});
  out.push_back({"disk-headroom", disk_.fill_fraction() < 0.98});
  return out;
}

int Site::grid_jobs_running() const {
  return scheduler_->busy_slots() - scheduler_->running_for_vo(local_vo_);
}

}  // namespace grid3::core
