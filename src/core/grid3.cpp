#include "core/grid3.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "pacman/vdt.h"

namespace grid3::core {

namespace {

/// Periods of the RLS soft-state refresh and the Site Status Catalog
/// verification sweep (start_operations).
constexpr Time kRlsRefreshPeriod = Time::minutes(20);
constexpr Time kCatalogSweepPeriod = Time::minutes(30);

}  // namespace

const std::vector<std::string>& canonical_vos() {
  static const std::vector<std::string> kVos = {
      "usatlas", "uscms", "sdss", "ligo", "btev", "ivdgl"};
  return kVos;
}

Grid3::Grid3(sim::Simulation& sim, std::uint64_t seed)
    : sim_{sim},
      seed_{seed},
      rng_{seed},
      net_{sim},
      ca_{"DOEGrids CA"},
      ftp_client_{sim, net_, &netlogger_},
      // Fail fast at the Condor-G layer: DAGMan owns retries, so every
      // failed jobmanager attempt is visible to ACDC accounting, as on
      // the real grid.
      condor_g_{sim, {.retry = {.base = Time::minutes(5), .max_retries = 0}}},
      failures_{sim, net_, igoc_, util::Rng{seed ^ 0xfa11u}} {
  pacman::load_vdt_bundle(igoc_.pacman_cache());
}

Grid3::~Grid3() {
  for (auto& op : operations_) op->stop();
}

vo::VomsServer& Grid3::add_vo(const std::string& name) {
  auto it = vos_.find(name);
  if (it != vos_.end()) return *it->second.voms;
  VoServices svc;
  svc.voms = std::make_unique<vo::VomsServer>(name);
  svc.giis = std::make_unique<mds::Giis>(name + "-giis", Time::minutes(10));
  svc.rls = std::make_unique<rls::ReplicaLocationService>(name);
  svc.dagman = std::make_unique<workflow::DagMan>(
      sim_, condor_g_, ftp_client_, svc.rls.get(), *this);
  if (health_) svc.dagman->set_health(health_.get());
  igoc_.top_giis().register_child(svc.giis.get());
  return *vos_.emplace(name, std::move(svc)).first->second.voms;
}

vo::Certificate Grid3::add_user(const std::string& vo_name,
                                const std::string& common_name,
                                vo::Role role) {
  vo::VomsServer& server = add_vo(vo_name);
  const std::string dn =
      "/DC=org/DC=doegrids/OU=People/CN=" + common_name + " " +
      std::to_string(++user_serial_);
  auto cert = ca_.issue(dn, sim_.now(), Time::days(365));
  server.add_member(dn, role);
  return cert;
}

std::optional<vo::VomsProxy> Grid3::make_proxy(const vo::Certificate& cert,
                                               const std::string& vo_name,
                                               Time lifetime) const {
  auto it = vos_.find(vo_name);
  if (it == vos_.end()) return std::nullopt;
  return vo::issue_proxy(*it->second.voms, cert, sim_.now(), lifetime);
}

vo::VomsServer* Grid3::voms(const std::string& vo_name) {
  auto it = vos_.find(vo_name);
  return it == vos_.end() ? nullptr : it->second.voms.get();
}

rls::ReplicaLocationService* Grid3::rls(const std::string& vo_name) {
  auto it = vos_.find(vo_name);
  return it == vos_.end() ? nullptr : it->second.rls.get();
}

mds::Giis* Grid3::vo_giis(const std::string& vo_name) {
  auto it = vos_.find(vo_name);
  return it == vos_.end() ? nullptr : it->second.giis.get();
}

workflow::DagMan& Grid3::dagman(const std::string& vo_name) {
  add_vo(vo_name);
  return *vos_.at(vo_name).dagman;
}

void Grid3::arm_vo_collective_failures(const std::string& vo_name) {
  add_vo(vo_name);
  VoServices& svc = vos_.at(vo_name);
  failures_.attach_collective(vo_name + "-collective",
                              {.giis = svc.giis.get(), .rls = svc.rls.get()});
}

void Grid3::arm_igoc_collective_failures() {
  failures_.attach_collective("igoc-collective",
                              {.giis = &igoc_.top_giis(),
                               .monitor = &igoc_.ml_repository(),
                               .tickets = &igoc_.tickets()});
}

broker::ResourceBroker& Grid3::attach_broker(const std::string& vo_name,
                                             broker::PolicyKind kind,
                                             broker::BrokerConfig cfg) {
  add_vo(vo_name);
  VoServices& svc = vos_.at(vo_name);
  auto policy = broker::make_policy(kind);
  assert(policy != nullptr && "attach_broker needs a real policy");
  // Mix the fabric seed and the VO name in so two VOs' brokers draw
  // independent streams, yet a fixed fabric seed reproduces the same
  // match log byte-for-byte.
  cfg.rng_seed ^= seed_ * 0x9e3779b97f4a7c15ull;
  cfg.rng_seed ^= std::hash<std::string>{}(vo_name);
  svc.broker = std::make_unique<broker::ResourceBroker>(
      sim_, cfg, std::move(policy), igoc_.top_giis(), &igoc_.ml_repository(),
      *this, condor_g_);
  // Every VO broker shares the fabric's interners, so site ids agree
  // across brokers, health, and the fabric's own site index.
  svc.broker->set_id_registry(ids_);
  if (cfg.placement_leases) {
    svc.placement =
        std::make_unique<placement::PlacementLedger>(vo_name, *this);
    // Chain acquires skip quarantined SEs (one fallthrough hop each).
    // The filter dereferences the monitor at call time, so it is safe
    // to wire before attach_health and picks the monitor up when it
    // arrives.
    svc.placement->set_admissibility([this](const std::string& site) {
      return health_ == nullptr || !health_->quarantined(site);
    });
    svc.broker->set_placement(svc.placement.get());
  } else {
    svc.placement.reset();
  }
  svc.dagman->set_broker(svc.broker.get());
  if (health_) svc.broker->set_health(health_.get());
  return *svc.broker;
}

health::SiteHealthMonitor& Grid3::attach_health() {
  if (health_) return *health_;
  health_ = std::make_unique<health::SiteHealthMonitor>(sim_);
  health_->set_id_registry(ids_);
  health_->set_tickets(
      [this](const std::string& site, const std::string& issue, Time now) {
        return igoc_.tickets().open(site, issue, now);
      },
      [this](std::uint64_t id, Time now) { igoc_.tickets().close(id, now); });

  // Probation probes run as site-verify jobs under the iGOC's operations
  // identity (ivdgl VO), submitted straight to the gatekeeper so they
  // bypass the very quarantine they are re-certifying.  Backfill
  // priority: probes never displace production work.
  probe_cert_ = add_user("ivdgl", "igoc-site-verify");
  std::vector<const vo::VomsServer*> servers;
  for (const auto& [name, svc] : vos_) servers.push_back(svc.voms.get());
  for (auto& s : sites_) {
    s->support_vo("ivdgl");
    s->refresh_gridmap(servers);
  }
  health_->set_probe_submitter(
      [this](const std::string& site, std::function<void(bool)> done) {
        gram::Gatekeeper* gk = gatekeeper(site);
        auto proxy = make_proxy(*probe_cert_, "ivdgl", Time::hours(2));
        if (gk == nullptr || !proxy.has_value()) {
          done(false);
          return;
        }
        gram::GramJob job;
        job.proxy = *proxy;
        job.request.vo = "ivdgl";
        job.request.requested_walltime = Time::hours(1);
        job.request.actual_runtime = Time::minutes(15);
        job.request.priority = -10;
        condor_g_.submit_to(
            *gk, std::move(job),
            [done = std::move(done)](const gram::GramResult& r) {
              done(r.ok());
            });
      });

  // A trip fans out to every VO broker: drop the site from candidate
  // sets, re-match held jobs, return gang leases parked there.
  health_->on_trip([this](const std::string& site) {
    for (auto& [name, svc] : vos_) {
      if (svc.broker) svc.broker->on_site_quarantined(site);
    }
  });

  for (auto& [name, svc] : vos_) {
    if (svc.broker) svc.broker->set_health(health_.get());
    svc.dagman->set_health(health_.get());
  }
  return *health_;
}

broker::ResourceBroker* Grid3::broker(const std::string& vo_name) {
  auto it = vos_.find(vo_name);
  return it == vos_.end() ? nullptr : it->second.broker.get();
}

placement::PlacementLedger* Grid3::placement(const std::string& vo_name) {
  auto it = vos_.find(vo_name);
  return it == vos_.end() ? nullptr : it->second.placement.get();
}

Site& Grid3::add_site(SiteConfig cfg, double reliability,
                      bool nightly_rollover) {
  auto site = std::make_unique<Site>(sim_, net_, igoc_.bus(), ca_,
                                     ftp_client_, cfg, rng_.fork());
  Site* sp = site.get();
  sites_.push_back(std::move(site));
  site_index_.at_or_grow(ids_->sites.intern(sp->name())) = sp;

  // Installation + certification via the iGOC Pacman cache.  A failed
  // certification means the admin reinstalls, as the documented Grid3
  // procedure required, until the site passes.
  for (int attempt = 0; attempt < 8 && !sp->installed(); ++attempt) {
    sp->install(igoc_.pacman_cache(), "grid3-vdt");
  }

  // Support every configured VO and generate the initial grid-map.
  std::vector<const vo::VomsServer*> servers;
  for (const auto& [name, svc] : vos_) {
    sp->support_vo(name);
    servers.push_back(svc.voms.get());
  }
  sp->refresh_gridmap(servers);

  // Register the GRIS with the owner VO's index (or the iGOC index when
  // the owner VO is unknown).
  if (mds::Giis* giis = vo_giis(cfg.owner_vo)) {
    giis->register_gris(&sp->gris());
  } else {
    igoc_.top_giis().register_gris(&sp->gris());
  }

  // Site Status Catalog registration.
  igoc_.site_catalog().register_site(
      sp->name(), cfg.location,
      [sp] { return sp->run_probes(); });

  sp->start_services();

  FailureRates rates;
  rates.nightly_rollover = nightly_rollover;
  failures_.attach(*sp, rates.scaled(reliability));
  return *sp;
}

Site* Grid3::site(const std::string& name) {
  return site_index_.get(ids_->sites.find(name), nullptr);
}

ExternalHost& Grid3::add_external_host(const std::string& name,
                                       Bandwidth bw) {
  auto host = std::make_unique<ExternalHost>();
  host->name = name;
  host->node = net_.add_node({bw, bw, true});
  host->ftp = std::make_unique<gridftp::GridFtpServer>(name, host->node);
  host->disk =
      std::make_unique<srm::DiskVolume>(name + ":/tape", Bytes::tb(100000));
  externals_.push_back(std::move(host));
  external_index_.at_or_grow(ids_->sites.intern(name)) =
      externals_.back().get();
  return *externals_.back();
}

void Grid3::start_operations() {
  // Grid-map regeneration at every site (edg-mkgridmap cron).
  auto gridmap_loop = std::make_unique<sim::PeriodicProcess>(
      sim_, kGridmapPeriod, [this] {
        std::vector<const vo::VomsServer*> servers;
        for (const auto& [name, svc] : vos_) servers.push_back(svc.voms.get());
        for (auto& s : sites_) s->refresh_gridmap(servers);
        return true;
      });
  gridmap_loop->start(Time::minutes(1));
  operations_.push_back(std::move(gridmap_loop));

  // RLS soft-state refresh.
  auto rls_loop =
      std::make_unique<sim::PeriodicProcess>(sim_, kRlsRefreshPeriod, [this] {
        for (auto& [name, svc] : vos_) svc.rls->refresh_all(sim_.now());
        return true;
      });
  rls_loop->start(Time::minutes(2));
  operations_.push_back(std::move(rls_loop));

  // Site Status Catalog verification sweep.
  auto catalog_loop = std::make_unique<sim::PeriodicProcess>(
      sim_, kCatalogSweepPeriod, [this] {
        igoc_.site_catalog().run_sweep(sim_.now());
        return true;
      });
  catalog_loop->start(Time::minutes(3));
  operations_.push_back(std::move(catalog_loop));
}

gram::Gatekeeper* Grid3::gatekeeper(const std::string& site_name) {
  Site* s = site(site_name);
  return s == nullptr ? nullptr : &s->gatekeeper();
}

gridftp::GridFtpServer* Grid3::ftp(const std::string& site_name) {
  const SiteId id = ids_->sites.find(site_name);
  if (Site* s = site_index_.get(id, nullptr)) return &s->ftp();
  if (ExternalHost* host = external_index_.get(id, nullptr)) {
    return host->ftp.get();
  }
  return nullptr;
}

srm::StorageResourceManager* Grid3::storage(const std::string& site_name) {
  Site* s = site(site_name);
  return s == nullptr ? nullptr : s->storage_element();
}

srm::DiskVolume* Grid3::volume(const std::string& site_name) {
  const SiteId id = ids_->sites.find(site_name);
  if (Site* s = site_index_.get(id, nullptr)) return &s->disk();
  if (ExternalHost* host = external_index_.get(id, nullptr)) {
    return host->disk.get();
  }
  return nullptr;
}

int Grid3::total_cpus() const {
  int n = 0;
  for (const auto& s : sites_) n += s->cpus();
  return n;
}

std::size_t Grid3::total_users() const {
  std::size_t n = 0;
  for (const auto& [name, svc] : vos_) n += svc.voms->member_count();
  return n;
}

}  // namespace grid3::core
