#include "core/failure.h"

#include <cassert>

namespace grid3::core {

namespace {

/// Fraction of the disk a disk-fill incident eats, and how long until
/// the admin cleans it up.
constexpr double kDiskFillFraction = 0.5;
constexpr Time kDiskCleanupAfter = Time::hours(8);
/// Mean repair times of the random site incidents.
constexpr Time kGatekeeperRepairMean = Time::hours(4);
constexpr Time kNetworkRepairMean = Time::hours(2);
constexpr Time kServiceRepairMean = Time::hours(6);
/// Fraction of running jobs the nightly worker rollover kills.
constexpr double kRolloverKillFraction = 0.9;

}  // namespace

const char* to_string(Incident i) {
  switch (i) {
    case Incident::kDiskFill: return "disk-fill";
    case Incident::kGatekeeperCrash: return "gatekeeper-crash";
    case Incident::kNetworkCut: return "network-cut";
    case Incident::kServiceCrash: return "service-crash";
    case Incident::kRollover: return "worker-rollover";
    case Incident::kScheduledDowntime: return "scheduled-downtime";
    case Incident::kWanWeather: return "wan-weather";
  }
  return "?";
}

FailureRates FailureRates::scaled(double reliability) const {
  assert(reliability > 0.0);
  FailureRates r = *this;
  r.disk_fill_mtbf = r.disk_fill_mtbf * reliability;
  r.gatekeeper_crash_mtbf = r.gatekeeper_crash_mtbf * reliability;
  r.network_cut_mtbf = r.network_cut_mtbf * reliability;
  r.service_crash_mtbf = r.service_crash_mtbf * reliability;
  return r;
}

void FailureInjector::attach(Site& site, FailureRates rates) {
  auto a = std::make_unique<Attached>();
  a->site = &site;
  a->rates = rates;
  Attached* ap = a.get();
  attached_[site.name()] = std::move(a);
  const std::string& name = site.name();

  arm(name, &FailureRates::disk_fill_mtbf, Incident::kDiskFill,
      [this](Site& s) {
        const Bytes eaten = s.disk().capacity() * kDiskFillFraction;
        s.disk().consume_unmanaged(eaten);
        const auto ticket =
            igoc_.tickets().open(s.name(), "disk-fill", sim_.now());
        sim_.schedule_in(kDiskCleanupAfter, [this, &s, ticket, eaten] {
          s.disk().cleanup(eaten);
          igoc_.tickets().close(ticket, sim_.now());
        });
      });
  arm(name, &FailureRates::gatekeeper_crash_mtbf, Incident::kGatekeeperCrash,
      [this](Site& s) {
        outage(s, "gatekeeper-crash", kGatekeeperRepairMean,
               [](Site& t, bool up) { t.gatekeeper().set_available(up); });
      });
  arm(name, &FailureRates::network_cut_mtbf, Incident::kNetworkCut,
      [this](Site& s) {
        outage(s, "network-cut", kNetworkRepairMean,
               [this](Site& t, bool up) { net_.set_node_up(t.node(), up); });
      });
  // Service crashes (GridFTP or GRIS, alternating randomly).
  arm(name, &FailureRates::service_crash_mtbf, Incident::kServiceCrash,
      [this](Site& s) {
        if (rng_.chance(0.6)) {
          outage(s, "gridftp-crash", kServiceRepairMean,
                 [](Site& t, bool up) { t.ftp().set_available(up); });
        } else {
          outage(s, "gris-crash", kServiceRepairMean,
                 [](Site& t, bool up) { t.gris().set_available(up); });
        }
      });

  // Nightly worker rollover.
  if (rates.nightly_rollover) {
    auto loop = std::make_unique<sim::PeriodicProcess>(
        sim_, Time::days(1), [this, &site] {
          record(Incident::kRollover);
          site.scheduler().kill_running(kRolloverKillFraction, rng_);
          return true;
        });
    // First rollover at the next "midnight" (whole day boundary).
    const double day_frac =
        sim_.now().to_days() - static_cast<double>(static_cast<std::int64_t>(
                                   sim_.now().to_days()));
    loop->start(Time::days(1.0 - day_frac));
    ap->loops.push_back(std::move(loop));
  }
}

void FailureInjector::arm(const std::string& site, Time FailureRates::*mtbf,
                          Incident kind, std::function<void(Site&)> act) {
  // By name, so a re-attached site's chains draw the new rates.
  const Attached& a = *attached_.at(site);
  const Time gap = Time::hours(rng_.exponential((a.rates.*mtbf).to_hours()));
  sim_.schedule_in(gap, [this, site, mtbf, kind, act = std::move(act)] {
    record(kind);
    act(*attached_.at(site)->site);
    arm(site, mtbf, kind, act);
  });
}

void FailureInjector::outage(Site& site, const char* issue, Time repair_mean,
                             std::function<void(Site&, bool up)> set_up) {
  set_up(site, false);
  const auto ticket = igoc_.tickets().open(site.name(), issue, sim_.now());
  const Time repair = Time::hours(rng_.exponential(repair_mean.to_hours()));
  sim_.schedule_in(repair, [this, &site, ticket, set_up = std::move(set_up)] {
    set_up(site, true);
    igoc_.tickets().close(ticket, sim_.now());
  });
}

void FailureInjector::attach_collective(const std::string& name,
                                        CollectiveTargets targets) {
  collectives_[name] = targets;
}

bool FailureInjector::set_target_up(const std::string& target, bool up) {
  if (auto it = attached_.find(target); it != attached_.end()) {
    Site& site = *it->second->site;
    site.gatekeeper().set_available(up);
    site.gris().set_available(up);
    return true;
  }
  if (auto it = collectives_.find(target); it != collectives_.end()) {
    const CollectiveTargets& t = it->second;
    if (t.giis != nullptr) t.giis->set_available(up);
    if (t.rls != nullptr) {
      t.rls->set_available(up);
      t.rls->rli().set_available(up);
      if (up) t.rls->replay(sim_.now());
    }
    if (t.monitor != nullptr) t.monitor->set_available(up);
    if (t.tickets != nullptr) t.tickets->set_available(up);
    return true;
  }
  return false;
}

bool FailureInjector::set_site_wan_up(const std::string& target, bool up) {
  auto it = attached_.find(target);
  if (it == attached_.end()) return false;
  net_.set_node_up(it->second->site->node(), up);
  return true;
}

void FailureInjector::schedule_downtime(DowntimeWindow w) {
  // Resolution is deferred to the window start, so an ops calendar can
  // be loaded before the sites/services it names are attached.  No RNG
  // is consumed on either path: windows perturb nothing but the target.
  sim_.schedule_at(w.start, [this, w] {
    if (w.wan) {
      if (!set_site_wan_up(w.target, false)) return;  // nothing attached
      record(Incident::kWanWeather);
      const auto ticket =
          igoc_.tickets().open(w.target, "wan-weather", sim_.now());
      sim_.schedule_in(w.duration, [this, w, ticket] {
        set_site_wan_up(w.target, true);
        igoc_.tickets().close(ticket, sim_.now());
      });
      return;
    }
    if (!set_target_up(w.target, false)) return;  // nothing attached
    record(Incident::kScheduledDowntime);
    const auto ticket =
        igoc_.tickets().open(w.target, "scheduled-maintenance", sim_.now());
    sim_.schedule_in(w.duration, [this, w, ticket] {
      set_target_up(w.target, true);
      igoc_.tickets().close(ticket, sim_.now());
    });
  });
}

std::size_t FailureInjector::incidents(Incident kind) const {
  auto it = counts_.find(kind);
  return it == counts_.end() ? 0 : it->second;
}

std::size_t FailureInjector::total_incidents() const {
  std::size_t n = 0;
  for (const auto& [kind, count] : counts_) n += count;
  return n;
}

}  // namespace grid3::core
