// Site-health circuit breakers: automated black-hole quarantine.
//
// The paper attributes ~90% of Grid3 failures to site problems -- "more
// frequently a disk would fill up or a service would fail and all jobs
// submitted to a site would die" (section 6.1).  The classic black-hole
// site fast-fails everything thrown at it, so queue-depth ranking sees
// an empty queue and funnels the whole workload in.  Grid3 broke that
// loop by hand: an operator noticed the burst, opened an iGOC ticket,
// told VOs to steer around the site, and re-certified it with
// site-verify probes before re-admission.  This module automates the
// loop.
//
// SiteHealthMonitor consumes per-site, per-service completion feedback
// (gatekeeper submit outcomes, GridFTP transfer failures, SRM/lease
// rejections, batch fast-fails) into EWMA failure-rate scores and
// drives a per-site circuit breaker:
//
//   closed     healthy; feedback updates the scores.
//   open       quarantined: the broker excludes the site from match and
//              gang candidate sets, held jobs re-match elsewhere,
//              pending gang leases are returned, and an iGOC trouble
//              ticket is opened.  Quarantine length escalates on
//              repeated trips (exponential, capped).
//   half-open  probation: a trickle of probe/exerciser jobs re-certify
//              the site (Grid3's site-verify practice).  Enough
//              consecutive probe successes re-admit it and close the
//              ticket; one failure re-opens with a longer quarantine.
//              Without a probe submitter attached, regular trial
//              traffic plays the probe role.
//
// The module sits below broker/core in the layering: feedback arrives
// through a neutral report() API and side effects leave through
// callbacks (ticket open/close, probe submission, trip observers), so
// health depends only on sim/util.  The monitor keeps each decision
// once: the event log and three grid-wide counters here, and the
// quarantine interval in the iGOC ticket a trip opens and a
// re-admission closes.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace grid3::health {

/// The per-site service classes scored independently: a full SE must not
/// shadow a healthy gatekeeper, and vice versa.
enum class Service {
  kSubmit,    ///< gatekeeper accept/auth path (GRAM submit outcomes)
  kBatch,     ///< jobs die under the LRMS / site environment (fast-fails)
  kTransfer,  ///< GridFTP stage-in/out and data-node transfers
  kStorage,   ///< SRM reservations / placement-lease rejections
};
inline constexpr int kServiceCount = 4;

[[nodiscard]] const char* to_string(Service s);

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* to_string(BreakerState s);

struct HealthConfig {
  /// Per-event EWMA weight of the failure indicator.
  double ewma_alpha = 0.25;
  /// Score at or above which a closed breaker trips.
  double trip_threshold = 0.6;
  /// Events a (site, service) score needs before it may trip (a single
  /// unlucky submission must not quarantine a site).
  int min_samples = 6;
  /// First quarantine length; doubles per consecutive trip, up to 8 h.
  Time quarantine_base = Time::minutes(30);
  /// Consecutive probe successes required to re-admit a site.
  int probes_required = 3;
  /// Spacing between probation probes (the exerciser's cadence).
  Time probe_interval = Time::minutes(15);
};

/// One breaker state-machine event, append-only (the determinism tests
/// diff serialize_events() byte-for-byte).
struct BreakerEvent {
  std::uint64_t seq = 0;
  Time at;
  std::string site;
  std::string event;    ///< trip | half-open | probe-ok | probe-fail | readmit
  std::string service;  ///< service that tripped it ("" otherwise)
  double score = 0.0;   ///< EWMA at the event
};

class SiteHealthMonitor {
 public:
  /// Submits one probe job at `site`; `done(ok)` must fire exactly once.
  using ProbeSubmitter = std::function<void(
      const std::string& site, std::function<void(bool ok)> done)>;
  using TicketOpenFn = std::function<std::uint64_t(
      const std::string& site, const std::string& issue, Time now)>;
  using TicketCloseFn = std::function<void(std::uint64_t id, Time now)>;
  using SiteObserver = std::function<void(const std::string& site)>;

  explicit SiteHealthMonitor(sim::Simulation& sim, HealthConfig cfg = {})
      : sim_{sim}, cfg_{cfg} {}
  SiteHealthMonitor(const SiteHealthMonitor&) = delete;
  SiteHealthMonitor& operator=(const SiteHealthMonitor&) = delete;

  [[nodiscard]] const HealthConfig& config() const { return cfg_; }

  // --- wiring ---------------------------------------------------------
  /// iGOC trouble-ticket hooks: a trip opens a ticket, re-admission
  /// closes it.
  void set_tickets(TicketOpenFn open, TicketCloseFn close) {
    ticket_open_ = std::move(open);
    ticket_close_ = std::move(close);
  }
  /// Probation probes (site-verify jobs).  Without one, half-open admits
  /// regular trial traffic and its outcomes decide re-admission.
  void set_probe_submitter(ProbeSubmitter submit) {
    probe_submitter_ = std::move(submit);
  }
  /// Observers fire on every trip (the broker kicks its held jobs and
  /// returns quarantined gang leases from here).
  void on_trip(SiteObserver f) { trip_observers_.push_back(std::move(f)); }
  /// Share an id registry (normally core::Grid3's, so health and the
  /// brokers agree on one site numbering).  Must be called before the
  /// first report; by default the monitor owns a private registry.
  void set_id_registry(std::shared_ptr<core::IdRegistry> ids) {
    assert(ids != nullptr);
    assert(breakers_.empty() &&
           "share the registry before breakers exist");
    ids_ = std::move(ids);
  }
  [[nodiscard]] const std::shared_ptr<core::IdRegistry>& id_registry() const {
    return ids_;
  }

  // --- feedback -------------------------------------------------------
  /// One service outcome at a site.  Failures push the (site, service)
  /// EWMA toward 1, successes decay it; a closed breaker trips when the
  /// score crosses the threshold with enough samples behind it.
  void report(const std::string& site, Service service, bool ok, Time now);

  /// Batch-layer feedback with fast-fail classification: a failed job
  /// that died within a quarter of its requested walltime is
  /// the black-hole signature and scores as a kBatch failure; successes
  /// decay the score; slow failures (e.g. a genuine walltime kill) are
  /// not a batch-health signal.
  void report_batch(const std::string& site, bool ok, Time submitted,
                    Time finished, Time requested_walltime, Time now);

  // --- queries --------------------------------------------------------
  [[nodiscard]] BreakerState state(const std::string& site) const;
  [[nodiscard]] BreakerState state(core::SiteId site) const;
  /// True when the broker must exclude the site: open, or half-open
  /// while a probe submitter owns re-certification.
  [[nodiscard]] bool quarantined(const std::string& site) const;
  [[nodiscard]] bool quarantined(core::SiteId site) const;
  [[nodiscard]] double score(const std::string& site, Service service) const;
  [[nodiscard]] double score(core::SiteId site, Service service) const;

  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }
  [[nodiscard]] std::uint64_t readmissions() const { return readmissions_; }

  /// Every site a breaker exists for, sorted by name (model-checker
  /// introspection: the breaker invariant sweeps these for
  /// lost-quarantine states; the explicit sort preserves the order the
  /// old name-keyed map yielded for free).
  [[nodiscard]] std::vector<std::string> sites() const;
  [[nodiscard]] bool has_probe_submitter() const {
    return probe_submitter_ != nullptr;
  }

  [[nodiscard]] const std::vector<BreakerEvent>& events() const {
    return events_;
  }
  /// Canonical one-line-per-event rendering (byte-identical across runs
  /// with the same seed -- the determinism test diffs this).
  [[nodiscard]] std::string serialize_events() const;

 private:
  struct ServiceScore {
    double ewma = 0.0;
    std::uint64_t samples = 0;
  };
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::array<ServiceScore, kServiceCount> scores;
    int streak = 0;  ///< consecutive trips without a re-admission
    int probe_successes = 0;
    /// Bumped on every transition; stale probe callbacks and half-open
    /// timers carry the epoch they were armed under and no-op on
    /// mismatch.
    std::uint64_t epoch = 0;
    std::uint64_t ticket = 0;  ///< open iGOC ticket (0 = none)
    bool live = false;  ///< a report has touched this site
  };

  /// Breaker slot for `site`, interning and growing the dense table.
  Breaker& breaker_for(const std::string& site);
  /// Existing breaker or null (no interning, no growth).
  [[nodiscard]] Breaker* find_breaker(const std::string& site);
  [[nodiscard]] const Breaker* find_breaker(core::SiteId site) const;

  void trip(const std::string& site, Breaker& b, const std::string& service,
            double score, Time now);
  void enter_half_open(const std::string& site, std::uint64_t epoch);
  void launch_probe(const std::string& site, std::uint64_t epoch);
  void on_probe(const std::string& site, std::uint64_t epoch, bool ok);
  void readmit(const std::string& site, Breaker& b, Time now);
  void record(const std::string& site, const std::string& event,
              const std::string& service, double score, Time now);

  sim::Simulation& sim_;
  HealthConfig cfg_;
  TicketOpenFn ticket_open_;
  TicketCloseFn ticket_close_;
  ProbeSubmitter probe_submitter_;
  std::vector<SiteObserver> trip_observers_;

  /// Site interner (shared with core::Grid3 when attached there).
  std::shared_ptr<core::IdRegistry> ids_ =
      std::make_shared<core::IdRegistry>();
  /// Dense breaker table indexed by interned site id.  A deque so
  /// growth (a first report for a new site, possibly from inside an
  /// observer callback) never invalidates the Breaker& a caller holds.
  std::deque<Breaker> breakers_;
  std::vector<BreakerEvent> events_;
  std::uint64_t trips_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace grid3::health
