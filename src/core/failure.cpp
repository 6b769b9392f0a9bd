#include "core/failure.h"

#include <cassert>

namespace grid3::core {

const char* to_string(Incident i) {
  switch (i) {
    case Incident::kDiskFill: return "disk-fill";
    case Incident::kGatekeeperCrash: return "gatekeeper-crash";
    case Incident::kNetworkCut: return "network-cut";
    case Incident::kServiceCrash: return "service-crash";
    case Incident::kRollover: return "worker-rollover";
    case Incident::kGiisOutage: return "giis-outage";
    case Incident::kRlsOutage: return "rls-outage";
    case Incident::kMonitorOutage: return "monalisa-outage";
    case Incident::kTicketQueueOutage: return "ticket-queue-outage";
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
      const Bytes eaten =
          a->site->disk().capacity() * a->rates.disk_fill_fraction;
      a->site->disk().consume_unmanaged(eaten);
      const auto ticket =
          igoc_.tickets().open(a->site->name(), "disk-fill", sim_.now());
      const std::string site_name = a->site->name();
      sim_.schedule_in(a->rates.disk_cleanup_after,
                       [this, alive, ticket, eaten] {
                         if (Attached* a2 = alive()) {
                           a2->site->disk().cleanup(eaten);
                         }
                         igoc_.tickets().close(ticket, sim_.now());
                       });
      (void)site_name;
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
          rng_.exponential(a->rates.gatekeeper_repair_mean.to_hours()));
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
          rng_.exponential(a->rates.network_repair_mean.to_hours()));
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
          rng_.exponential(a->rates.service_repair_mean.to_hours()));
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
          a->site->scheduler().kill_running(a->rates.rollover_kill_fraction,
                                            rng_);
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
                                        CollectiveTargets targets,
                                        CollectiveFailureRates rates) {
  auto c = std::make_unique<AttachedCollective>();
  c->targets = targets;
  c->rates = rates;
  collectives_[name] = std::move(c);

  // Pending outages look the bundle up by name: entries are never
  // erased, and re-attaching a name swaps the targets they act on.
  auto bundle = [this, name]() -> AttachedCollective& {
    return *collectives_.at(name);
  };

  // One generic Poisson outage loop per service class.  `select` pulls
  // the class's target out of the bundle (null = class not armed here);
  // `down`/`up` flip its availability.  Classes whose MTBF is zero are
  // never armed, so they consume no RNG draws at all.
  auto arm = [this, bundle](Incident kind, const char* issue, Time mtbf,
                            Time repair_mean, auto select, auto down,
                            auto up) {
    if (mtbf <= Time::zero() || select(bundle()) == nullptr) return;
    auto schedule = [this, bundle, kind, issue, mtbf, repair_mean, select,
                     down, up](auto&& self) -> void {
      const Time gap = Time::hours(rng_.exponential(mtbf.to_hours()));
      sim_.schedule_in(gap, [this, bundle, kind, issue, repair_mean, select,
                             down, up, self] {
        auto* target = select(bundle());
        if (target == nullptr) return;
        record(kind);
        down(*target);
        // The ticket goes against the service name; when the down
        // service IS the ticket queue, open() drops it (id 0) -- the
        // operators' view goes dark, exactly the modeled failure.
        const auto ticket = igoc_.tickets().open(issue, issue, sim_.now());
        const Time repair =
            Time::hours(rng_.exponential(repair_mean.to_hours()));
        sim_.schedule_in(repair, [this, bundle, ticket, select, up] {
          if (auto* t = select(bundle())) up(*t);
          igoc_.tickets().close(ticket, sim_.now());
        });
        self(self);
      });
    };
    schedule(schedule);
  };

  arm(
      Incident::kGiisOutage, "giis-outage", rates.giis_outage_mtbf,
      rates.giis_repair_mean,
      [](AttachedCollective& c) { return c.targets.giis; },
      [](mds::Giis& g) { g.set_available(false); },
      [](mds::Giis& g) { g.set_available(true); });
  arm(
      Incident::kRlsOutage, "rls-outage", rates.rls_outage_mtbf,
      rates.rls_repair_mean,
      [](AttachedCollective& c) { return c.targets.rls; },
      [](rls::ReplicaLocationService& r) {
        r.set_available(false);
        r.rli().set_available(false);
      },
      [this](rls::ReplicaLocationService& r) {
        r.set_available(true);
        r.rli().set_available(true);
        r.replay(sim_.now());  // drain the write-ahead journal
      });
  arm(
      Incident::kMonitorOutage, "monalisa-outage", rates.monitor_outage_mtbf,
      rates.monitor_repair_mean,
      [](AttachedCollective& c) { return c.targets.monitor; },
      [](monitoring::MonalisaRepository& m) { m.set_available(false); },
      [](monitoring::MonalisaRepository& m) { m.set_available(true); });
  arm(
      Incident::kTicketQueueOutage, "ticket-queue-outage",
      rates.ticket_queue_mtbf, rates.ticket_queue_repair_mean,
      [](AttachedCollective& c) { return c.targets.tickets; },
      [](TroubleTicketSystem& t) { t.set_available(false); },
      [](TroubleTicketSystem& t) { t.set_available(true); });
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
    CollectiveTargets& t = it->second->targets;
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
