// The Grid3 fabric: the paper's primary contribution assembled.
//
// Two-tier architecture (section 5): per-site grid services with
// VO-specific configuration, registered into VO-level services (VOMS,
// VO GIIS, per-VO RLS), which combine into top-level services at the
// iGOC.  The fabric also implements workflow::SiteServices so planners
// and DAGMan can resolve site names to live endpoints.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "core/failure.h"
#include "core/ids.h"
#include "core/igoc.h"
#include "core/site.h"
#include "gram/condor_g.h"
#include "gridftp/gridftp.h"
#include "gridftp/netlogger.h"
#include "health/health.h"
#include "net/network.h"
#include "rls/rls.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "vo/voms.h"
#include "workflow/dagman.h"

namespace grid3::core {

/// The six Grid3 VOs (section 5) in canonical order.
[[nodiscard]] const std::vector<std::string>& canonical_vos();

/// External (non-Grid3) data endpoints: archive/tape hosts at labs.
struct ExternalHost {
  std::string name;
  net::NodeId node;
  std::unique_ptr<gridftp::GridFtpServer> ftp;
  std::unique_ptr<srm::DiskVolume> disk;  ///< effectively unbounded tape
};

class Grid3 final : public workflow::SiteServices,
                    public broker::GatekeeperDirectory,
                    public placement::StorageDirectory {
 public:
  explicit Grid3(sim::Simulation& sim, std::uint64_t seed = 20031025);
  ~Grid3() override;

  // --- VO layer -------------------------------------------------------
  /// Create a VO: VOMS server, VO GIIS (registered with the iGOC top
  /// index), and a per-VO RLS.
  vo::VomsServer& add_vo(const std::string& name);

  /// Register a user: issues an identity certificate from the grid CA
  /// and adds the DN to the VO's VOMS server.
  vo::Certificate add_user(const std::string& vo_name,
                           const std::string& common_name,
                           vo::Role role = vo::Role::kUser);

  /// Short-lived VOMS proxy for a registered user.
  [[nodiscard]] std::optional<vo::VomsProxy> make_proxy(
      const vo::Certificate& cert, const std::string& vo_name,
      Time lifetime = Time::hours(48)) const;

  [[nodiscard]] vo::VomsServer* voms(const std::string& vo_name);
  [[nodiscard]] rls::ReplicaLocationService* rls(const std::string& vo_name);
  [[nodiscard]] mds::Giis* vo_giis(const std::string& vo_name);

  // --- site layer -----------------------------------------------------
  /// Bring a site online: construct it, run the Pacman install +
  /// certification, support every VO, generate its grid-map, register
  /// its GRIS with the owner VO's GIIS, hook it into the Site Status
  /// Catalog, start its monitoring loops, and attach failure injection.
  /// `reliability` scales failure MTBFs (higher = more stable).
  Site& add_site(SiteConfig cfg, double reliability = 1.0,
                 bool nightly_rollover = false);

  [[nodiscard]] Site* site(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<Site>>& sites() const {
    return sites_;
  }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// The fabric-wide id registry: every broker and the health monitor
  /// attached here share it, so interned site ids are comparable across
  /// subsystems.
  [[nodiscard]] const std::shared_ptr<IdRegistry>& id_registry() const {
    return ids_;
  }

  /// External archive endpoint (CERN, LIGO observatories...).
  ExternalHost& add_external_host(const std::string& name,
                                  Bandwidth bw = Bandwidth::gbps(1));

  // --- central operations ---------------------------------------------
  /// Period of the grid-map regeneration cron (edg-mkgridmap); its first
  /// run is one minute after start_operations.
  static constexpr Time kGridmapPeriod = Time::hours(6);

  /// Start grid-wide periodic processes: grid-map regeneration, RLS
  /// soft-state refresh every 20 minutes, site-catalog verification
  /// sweeps every 30.
  void start_operations();

  // --- shared services --------------------------------------------------
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] const vo::CertificateAuthority& ca() const { return ca_; }
  [[nodiscard]] Igoc& igoc() { return igoc_; }
  [[nodiscard]] const Igoc& igoc() const { return igoc_; }
  [[nodiscard]] gridftp::NetLogger& netlogger() { return netlogger_; }
  [[nodiscard]] gridftp::GridFtpClient& ftp_client() { return ftp_client_; }
  [[nodiscard]] gram::CondorG& condor_g() { return condor_g_; }
  [[nodiscard]] FailureInjector& failures() { return failures_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Name a VO's collective services (its GIIS and RLS) as the
  /// downtime target "<vo>-collective" for ops-calendar windows.
  /// Attaching takes nothing down by itself.
  void arm_vo_collective_failures(const std::string& vo_name);
  /// Name the iGOC's central services (top GIIS, MonALISA repository,
  /// ticket queue) as the downtime target "igoc-collective".
  void arm_igoc_collective_failures();

  /// Per-VO DAGMan (bound to that VO's RLS).
  [[nodiscard]] workflow::DagMan& dagman(const std::string& vo_name);

  /// Attach a resource broker to a VO: view fed by the iGOC top GIIS and
  /// MonALISA repository, match decisions mirrored into the iGOC job
  /// database, and the VO's DAGMan switched to late binding.  `kind`
  /// must not be PolicyKind::kNone; re-attaching replaces the policy.
  broker::ResourceBroker& attach_broker(const std::string& vo_name,
                                        broker::PolicyKind kind,
                                        broker::BrokerConfig cfg = {});
  /// The VO's broker, or null when none is attached.
  [[nodiscard]] broker::ResourceBroker* broker(const std::string& vo_name);
  /// The VO's placement ledger (created by attach_broker when the config
  /// enables leases), or null.
  [[nodiscard]] placement::PlacementLedger* placement(
      const std::string& vo_name);

  /// Attach the grid-wide site-health monitor: breaker events publish on
  /// the iGOC bus and mirror into ACDC, trips open iGOC trouble tickets
  /// (re-admissions close them), probation probes run as backfill
  /// site-verify jobs under the ivdgl operations VO, and every attached
  /// broker (existing and future) excludes quarantined sites, kicks its
  /// held jobs, and returns quarantined gang leases on a trip.
  /// Idempotent: a second call returns the existing monitor.
  health::SiteHealthMonitor& attach_health();
  /// The grid's health monitor, or null before attach_health.
  [[nodiscard]] health::SiteHealthMonitor* health() { return health_.get(); }

  // --- workflow::SiteServices + broker::GatekeeperDirectory -------------
  /// One override serves both bases (identical signatures).
  [[nodiscard]] gram::Gatekeeper* gatekeeper(const std::string& site) override;
  /// Serves both workflow::SiteServices and placement::StorageDirectory
  /// (the ledger resolves failover-chain SEs to stage-out endpoints).
  [[nodiscard]] gridftp::GridFtpServer* ftp(const std::string& site) override;
  /// Serves both workflow::SiteServices and placement::StorageDirectory.
  [[nodiscard]] srm::DiskVolume* volume(const std::string& site) override;
  /// placement::StorageDirectory: the site's SRM head node (null for
  /// sites without a deployed SRM and for external archive hosts).
  [[nodiscard]] srm::StorageResourceManager* storage(
      const std::string& site) override;

  /// Total CPUs across online sites (milestone metric).
  [[nodiscard]] int total_cpus() const;
  /// Authorized users across all VOMS servers (milestone metric).
  [[nodiscard]] std::size_t total_users() const;

 private:
  struct VoServices {
    std::unique_ptr<vo::VomsServer> voms;
    std::unique_ptr<mds::Giis> giis;
    std::unique_ptr<rls::ReplicaLocationService> rls;
    std::unique_ptr<workflow::DagMan> dagman;
    std::unique_ptr<placement::PlacementLedger> placement;
    std::unique_ptr<broker::ResourceBroker> broker;
  };

  sim::Simulation& sim_;
  std::uint64_t seed_;
  util::Rng rng_;
  net::Network net_;
  vo::CertificateAuthority ca_;
  Igoc igoc_;
  gridftp::NetLogger netlogger_;
  gridftp::GridFtpClient ftp_client_;
  gram::CondorG condor_g_;
  FailureInjector failures_;
  std::unique_ptr<health::SiteHealthMonitor> health_;
  std::optional<vo::Certificate> probe_cert_;  ///< site-verify identity
  std::map<std::string, VoServices> vos_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::unique_ptr<ExternalHost>> externals_;
  /// Fabric-wide interners shared with brokers and health.
  std::shared_ptr<IdRegistry> ids_ = std::make_shared<IdRegistry>();
  /// Interned site id -> Site (replaces the linear scan every
  /// gatekeeper/ftp/volume resolution used to pay).
  IdMap<SiteId, Site*> site_index_;
  /// External archive hosts, interned into the same site namespace
  /// (ftp/volume resolve either kind by name).
  IdMap<SiteId, ExternalHost*> external_index_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> operations_;
  std::uint64_t user_serial_ = 0;
};

}  // namespace grid3::core
