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

  const std::string name = site.name();
  auto alive = [this, name]() -> Attached* {
    auto it = attached_.find(name);
    return it != attached_.end() && it->second->active ? it->second.get()
                                                       : nullptr;
  };

  // Disk-fill incidents.
  auto schedule_disk = [this, alive](auto&& self) -> void {
    Attached* a = alive();
    if (a == nullptr) return;
    const Time gap = Time::hours(
        rng_.exponential(a->rates.disk_fill_mtbf.to_hours()));
    sim_.schedule_in(gap, [this, alive, self] {
      Attached* a = alive();
      if (a == nullptr) return;
      record(Incident::kDiskFill);
      const Bytes eaten = a->site->disk().capacity() * kDiskFillFraction;
      a->site->disk().consume_unmanaged(eaten);
      const auto ticket =
          igoc_.tickets().open(a->site->name(), "disk-fill", sim_.now());
      sim_.schedule_in(kDiskCleanupAfter, [this, alive, ticket, eaten] {
        if (Attached* a2 = alive()) a2->site->disk().cleanup(eaten);
        igoc_.tickets().close(ticket, sim_.now());
      });
      self(self);
    });
  };
  schedule_disk(schedule_disk);

  // Gatekeeper crashes.
  auto schedule_gk = [this, alive](auto&& self) -> void {
    Attached* a = alive();
    if (a == nullptr) return;
    const Time gap = Time::hours(
        rng_.exponential(a->rates.gatekeeper_crash_mtbf.to_hours()));
    sim_.schedule_in(gap, [this, alive, self] {
      Attached* a = alive();
      if (a == nullptr) return;
      record(Incident::kGatekeeperCrash);
      a->site->gatekeeper().set_available(false);
      const auto ticket = igoc_.tickets().open(a->site->name(),
                                               "gatekeeper-crash", sim_.now());
      const Time repair = Time::hours(
          rng_.exponential(kGatekeeperRepairMean.to_hours()));
      sim_.schedule_in(repair, [this, alive, ticket] {
        if (Attached* a2 = alive()) {
          a2->site->gatekeeper().set_available(true);
        }
        igoc_.tickets().close(ticket, sim_.now());
      });
      self(self);
    });
  };
  schedule_gk(schedule_gk);

  // Network interruptions.
  auto schedule_net = [this, alive](auto&& self) -> void {
    Attached* a = alive();
    if (a == nullptr) return;
    const Time gap =
        Time::hours(rng_.exponential(a->rates.network_cut_mtbf.to_hours()));
    sim_.schedule_in(gap, [this, alive, self] {
      Attached* a = alive();
      if (a == nullptr) return;
      record(Incident::kNetworkCut);
      net_.set_node_up(a->site->node(), false);
      const auto ticket =
          igoc_.tickets().open(a->site->name(), "network-cut", sim_.now());
      const Time repair = Time::hours(
          rng_.exponential(kNetworkRepairMean.to_hours()));
      sim_.schedule_in(repair, [this, alive, ticket] {
        if (Attached* a2 = alive()) {
          net_.set_node_up(a2->site->node(), true);
        }
        igoc_.tickets().close(ticket, sim_.now());
      });
      self(self);
    });
  };
  schedule_net(schedule_net);

  // Service crashes (GridFTP or GRIS, alternating randomly).
  auto schedule_svc = [this, alive](auto&& self) -> void {
    Attached* a = alive();
    if (a == nullptr) return;
    const Time gap = Time::hours(
        rng_.exponential(a->rates.service_crash_mtbf.to_hours()));
    sim_.schedule_in(gap, [this, alive, self] {
      Attached* a = alive();
      if (a == nullptr) return;
      record(Incident::kServiceCrash);
      const bool ftp = rng_.chance(0.6);
      if (ftp) {
        a->site->ftp().set_available(false);
      } else {
        a->site->gris().set_available(false);
      }
      const auto ticket = igoc_.tickets().open(
          a->site->name(), ftp ? "gridftp-crash" : "gris-crash", sim_.now());
      const Time repair = Time::hours(
          rng_.exponential(kServiceRepairMean.to_hours()));
      sim_.schedule_in(repair, [this, alive, ticket, ftp] {
        if (Attached* a2 = alive()) {
          if (ftp) {
            a2->site->ftp().set_available(true);
          } else {
            a2->site->gris().set_available(true);
          }
        }
        igoc_.tickets().close(ticket, sim_.now());
      });
      self(self);
    });
  };
  schedule_svc(schedule_svc);

  // Nightly worker rollover.
  if (rates.nightly_rollover) {
    auto loop = std::make_unique<sim::PeriodicProcess>(
        sim_, Time::days(1), [this, alive] {
          Attached* a = alive();
          if (a == nullptr) return false;
          record(Incident::kRollover);
          a->site->scheduler().kill_running(kRolloverKillFraction, rng_);
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

void FailureInjector::detach(const std::string& site_name) {
  auto it = attached_.find(site_name);
  if (it == attached_.end()) return;
  it->second->active = false;
  for (auto& loop : it->second->loops) loop->stop();
  // Keep the entry (inactive) so in-flight lambdas resolve to nullptr.
}

void FailureInjector::attach_collective(const std::string& name,
                                        CollectiveTargets targets) {
  collectives_[name] = targets;
}

bool FailureInjector::set_target_up(const std::string& target, bool up) {
  if (auto it = attached_.find(target);
      it != attached_.end() && it->second->active) {
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
  if (it == attached_.end() || !it->second->active) return false;
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
