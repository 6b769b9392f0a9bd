// Failure injection: the operational failure modes of sections 6.1/6.2.
//
// "Approximately 90% of failures were due to site problems: disk filling
// errors, gatekeeper overloading, or network interruptions."  "...more
// frequently a disk would fill up or a service would fail and all jobs
// submitted to a site would die."  Plus ACDC's nightly roll over of
// worker nodes killing running jobs.
//
// Each attached site gets independent Poisson processes per failure
// class; every incident opens an iGOC trouble ticket and repairs close
// it after a repair-time distribution.
//
// Collective services (section 5/6: the index, the replica catalog, the
// monitoring collectors, even the ticket queue) go down only on the
// operations calendar, the INFN-GRID-style maintenance schedule:
// attach_collective names a bundle of them, and schedule_downtime()
// takes absolute (target, start, duration) windows for a site or a
// bundle, consumes no RNG, and opens a "scheduled-maintenance" ticket per
// window.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/igoc.h"
#include "core/site.h"
#include "rls/rls.h"
#include "sim/simulation.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace grid3::core {

struct FailureRates {
  /// Mean time between unmanaged disk-consumption incidents.
  Time disk_fill_mtbf = Time::days(35);
  Time gatekeeper_crash_mtbf = Time::days(50);
  Time network_cut_mtbf = Time::days(75);
  /// GridFTP / GRIS / SE service crash.
  Time service_crash_mtbf = Time::days(45);

  /// ACDC-style nightly worker rollover.
  bool nightly_rollover = false;

  /// Scale every MTBF (1.0 = nominal; < 1 = flakier site).
  [[nodiscard]] FailureRates scaled(double reliability) const;
};

/// The services one attach_collective call covers (null = not part of
/// this bundle).  A maintenance window on the bundle takes every
/// non-null service down and brings it back.
struct CollectiveTargets {
  mds::Giis* giis = nullptr;
  rls::ReplicaLocationService* rls = nullptr;
  monitoring::MonalisaRepository* monitor = nullptr;
  TroubleTicketSystem* tickets = nullptr;
};

/// One ops-calendar maintenance window.  `target` names an attached
/// site (gatekeeper + GRIS go down for the window) or an attached
/// collective bundle (its services go down); `start` is absolute sim
/// time.  Resolution happens at fire time, so windows may be scheduled
/// before the target is attached.  A `wan` window models WAN weather
/// instead: the site's network node drops for the window (transfers
/// fail, the gatekeeper stays reachable for accounting purposes), the
/// way announced backbone maintenance did.
struct DowntimeWindow {
  std::string target;
  Time start;
  Time duration;
  bool wan = false;
};

/// Kinds of incidents, for accounting.
enum class Incident {
  kDiskFill,
  kGatekeeperCrash,
  kNetworkCut,
  kServiceCrash,
  kRollover,
  kScheduledDowntime,  ///< ops-calendar maintenance window
  kWanWeather,         ///< ops-calendar WAN degradation window
};

[[nodiscard]] const char* to_string(Incident i);

class FailureInjector {
 public:
  FailureInjector(sim::Simulation& sim, net::Network& network, Igoc& igoc,
                  util::Rng rng)
      : sim_{sim}, net_{network}, igoc_{igoc}, rng_{rng} {}
  FailureInjector(const FailureInjector&) = delete;
  FailureInjector& operator=(const FailureInjector&) = delete;

  /// Attach a site; failures start flowing immediately.
  void attach(Site& site, FailureRates rates);
  /// Stop injecting for a site (e.g. it stabilized / was withdrawn).
  void detach(const std::string& site_name);

  /// Name a collective-service bundle as a downtime target.  Attaching
  /// draws nothing and takes nothing down by itself; re-attaching a name
  /// swaps the services its windows act on.
  void attach_collective(const std::string& name, CollectiveTargets targets);

  /// Queue an ops-calendar maintenance window (no RNG involved).  The
  /// restore at window end is unconditional: a window overlapping a
  /// random incident's repair may bring the service back early -- real
  /// maintenance does that too.  Bringing an RLS back replays its
  /// registration journal.
  void schedule_downtime(DowntimeWindow w);

  [[nodiscard]] std::size_t incidents(Incident kind) const;
  [[nodiscard]] std::size_t total_incidents() const;

 private:
  struct Attached {
    Site* site;
    FailureRates rates;
    std::vector<std::unique_ptr<sim::PeriodicProcess>> loops;
    bool active = true;
  };

  /// The attached, still-active entry for `site` (null once detached).
  [[nodiscard]] Attached* live(const std::string& site);
  /// One Poisson incident class at `site`: after an exponential gap of
  /// mean `rates.*mtbf`, count a `kind` incident, `act` on the site, and
  /// re-arm -- so each class's own draws come before its next gap.
  void arm(const std::string& site, Time FailureRates::*mtbf, Incident kind,
           std::function<void(Site&)> act);
  /// A service outage: take it down with `set_up(site, false)`, open a
  /// ticket, draw an exponential repair time of mean `repair_mean`, then
  /// bring it back (if the site is still attached) and close the ticket.
  void outage(Site& site, const char* issue, Time repair_mean,
              std::function<void(Site&, bool up)> set_up);
  /// Take a downtime target (site or collective bundle) down or up.
  /// Returns false when the name resolves to nothing attached.  The only
  /// code that flips a collective service.
  bool set_target_up(const std::string& target, bool up);
  /// Take an attached site's network node down or up (WAN weather).
  bool set_site_wan_up(const std::string& target, bool up);

  void record(Incident kind) { ++counts_[kind]; }

  sim::Simulation& sim_;
  net::Network& net_;
  Igoc& igoc_;
  util::Rng rng_;
  std::map<std::string, std::unique_ptr<Attached>> attached_;
  std::map<std::string, CollectiveTargets> collectives_;
  std::map<Incident, std::size_t> counts_;
};

}  // namespace grid3::core
