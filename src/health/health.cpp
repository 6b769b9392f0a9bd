#include "health/health.h"

#include <algorithm>
#include <cstdio>

namespace grid3::health {

namespace {

/// A failed job that died within this fraction of its requested
/// walltime counts as a batch fast-fail -- the black-hole signature.
constexpr double kFastFailFraction = 0.25;
/// Each consecutive trip multiplies the quarantine by this, up to the cap.
constexpr double kQuarantineEscalation = 2.0;
constexpr Time kQuarantineCap = Time::hours(8);

}  // namespace

const char* to_string(Service s) {
  switch (s) {
    case Service::kSubmit: return "submit";
    case Service::kBatch: return "batch";
    case Service::kTransfer: return "transfer";
    case Service::kStorage: return "storage";
  }
  return "?";
}

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

SiteHealthMonitor::Breaker& SiteHealthMonitor::breaker_for(
    const std::string& site) {
  const core::SiteId id = ids_->sites.intern(site);
  if (id.value() >= breakers_.size()) breakers_.resize(id.value() + 1);
  Breaker& b = breakers_[id.value()];
  b.live = true;
  return b;
}

SiteHealthMonitor::Breaker* SiteHealthMonitor::find_breaker(
    const std::string& site) {
  const core::SiteId id = ids_->sites.find(site);
  if (!id.valid() || id.value() >= breakers_.size()) return nullptr;
  Breaker& b = breakers_[id.value()];
  return b.live ? &b : nullptr;
}

const SiteHealthMonitor::Breaker* SiteHealthMonitor::find_breaker(
    core::SiteId site) const {
  if (!site.valid() || site.value() >= breakers_.size()) return nullptr;
  const Breaker& b = breakers_[site.value()];
  return b.live ? &b : nullptr;
}

void SiteHealthMonitor::report(const std::string& site, Service service,
                               bool ok, Time now) {
  Breaker& b = breaker_for(site);
  ServiceScore& s = b.scores[static_cast<std::size_t>(service)];
  s.ewma = (1.0 - cfg_.ewma_alpha) * s.ewma + cfg_.ewma_alpha * (ok ? 0.0 : 1.0);
  ++s.samples;
  switch (b.state) {
    case BreakerState::kClosed:
      if (!ok && s.samples >= static_cast<std::uint64_t>(cfg_.min_samples) &&
          s.ewma >= cfg_.trip_threshold) {
        trip(site, b, to_string(service), s.ewma, now);
      }
      break;
    case BreakerState::kHalfOpen:
      // With a probe submitter, probes own re-certification; stray
      // in-flight results from before the trip only update the scores.
      if (probe_submitter_) break;
      if (!ok) {
        trip(site, b, to_string(service), s.ewma, now);
      } else if (++b.probe_successes >= cfg_.probes_required) {
        readmit(site, b, now);
      }
      break;
    case BreakerState::kOpen:
      break;  // stragglers bound before the trip; nothing to decide
  }
}

void SiteHealthMonitor::report_batch(const std::string& site, bool ok,
                                     Time submitted, Time finished,
                                     Time requested_walltime, Time now) {
  if (ok) {
    report(site, Service::kBatch, true, now);
    return;
  }
  const double lived = (finished - submitted).to_seconds();
  const double requested = requested_walltime.to_seconds();
  if (requested <= 0.0 || lived < kFastFailFraction * requested) {
    report(site, Service::kBatch, false, now);
  }
}

void SiteHealthMonitor::trip(const std::string& site, Breaker& b,
                             const std::string& service, double score,
                             Time now) {
  b.state = BreakerState::kOpen;
  ++b.epoch;
  ++b.streak;
  ++trips_;
  b.probe_successes = 0;
  record(site, "trip", service, score, now);
  if (b.ticket == 0 && ticket_open_) {
    b.ticket = ticket_open_(site, "quarantined: " + service +
                                      " failure rate tripped breaker",
                            now);
  }
  // Escalating quarantine: base * escalation^(streak-1), capped.
  double q = cfg_.quarantine_base.to_seconds();
  for (int i = 1; i < b.streak; ++i) q *= kQuarantineEscalation;
  q = std::min(q, kQuarantineCap.to_seconds());
  const std::uint64_t epoch = b.epoch;
  sim_.schedule_in(Time::seconds(q),
                   [this, site, epoch] { enter_half_open(site, epoch); });
  for (const auto& f : trip_observers_) f(site);
}

void SiteHealthMonitor::enter_half_open(const std::string& site,
                                        std::uint64_t epoch) {
  Breaker* found = find_breaker(site);
  if (found == nullptr) return;
  Breaker& b = *found;
  if (b.state != BreakerState::kOpen || b.epoch != epoch) return;
  b.state = BreakerState::kHalfOpen;
  b.probe_successes = 0;
  record(site, "half-open", "", 0.0, sim_.now());
  if (probe_submitter_) launch_probe(site, b.epoch);
}

void SiteHealthMonitor::launch_probe(const std::string& site,
                                     std::uint64_t epoch) {
  probe_submitter_(site, [this, site, epoch](bool ok) {
    on_probe(site, epoch, ok);
  });
}

void SiteHealthMonitor::on_probe(const std::string& site, std::uint64_t epoch,
                                 bool ok) {
  Breaker* found = find_breaker(site);
  if (found == nullptr) return;
  Breaker& b = *found;
  if (b.state != BreakerState::kHalfOpen || b.epoch != epoch) return;
  const Time now = sim_.now();
  ++probes_;
  record(site, ok ? "probe-ok" : "probe-fail", "", 0.0, now);
  if (!ok) {
    // Probation failed: back to quarantine, escalated.
    trip(site, b, "probe", 1.0, now);
    return;
  }
  if (++b.probe_successes >= cfg_.probes_required) {
    readmit(site, b, now);
    return;
  }
  sim_.schedule_in(cfg_.probe_interval, [this, site, epoch] {
    const Breaker* again = find_breaker(site);
    if (again == nullptr || again->state != BreakerState::kHalfOpen ||
        again->epoch != epoch) {
      return;
    }
    launch_probe(site, epoch);
  });
}

void SiteHealthMonitor::readmit(const std::string& site, Breaker& b,
                                Time now) {
  b.state = BreakerState::kClosed;
  ++b.epoch;
  b.streak = 0;
  b.probe_successes = 0;
  // Fresh start: the repaired site must not re-trip on pre-repair
  // history the EWMA still remembers.
  for (ServiceScore& s : b.scores) s = {};
  ++readmissions_;
  record(site, "readmit", "", 0.0, now);
  if (b.ticket != 0 && ticket_close_) {
    ticket_close_(b.ticket, now);
  }
  b.ticket = 0;
}

BreakerState SiteHealthMonitor::state(const std::string& site) const {
  return state(ids_->sites.find(site));
}

BreakerState SiteHealthMonitor::state(core::SiteId site) const {
  const Breaker* b = find_breaker(site);
  return b == nullptr ? BreakerState::kClosed : b->state;
}

bool SiteHealthMonitor::quarantined(const std::string& site) const {
  return quarantined(ids_->sites.find(site));
}

bool SiteHealthMonitor::quarantined(core::SiteId site) const {
  const Breaker* b = find_breaker(site);
  if (b == nullptr) return false;
  switch (b->state) {
    case BreakerState::kOpen:
      return true;
    case BreakerState::kHalfOpen:
      // With a probe submitter the probes re-certify and production
      // traffic stays out; without one, trial traffic is the probe.
      return probe_submitter_ != nullptr;
    case BreakerState::kClosed:
      return false;
  }
  return false;
}

double SiteHealthMonitor::score(const std::string& site,
                                Service service) const {
  return score(ids_->sites.find(site), service);
}

double SiteHealthMonitor::score(core::SiteId site, Service service) const {
  const Breaker* b = find_breaker(site);
  if (b == nullptr) return 0.0;
  return b->scores[static_cast<std::size_t>(service)].ewma;
}

std::vector<std::string> SiteHealthMonitor::sites() const {
  std::vector<std::string> out;
  out.reserve(breakers_.size());
  for (std::size_t i = 0; i < breakers_.size(); ++i) {
    if (breakers_[i].live) {
      out.push_back(ids_->sites.name(core::SiteId{
          static_cast<std::uint32_t>(i)}));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SiteHealthMonitor::record(const std::string& site,
                               const std::string& event,
                               const std::string& service, double score,
                               Time now) {
  BreakerEvent e;
  e.seq = static_cast<std::uint64_t>(events_.size()) + 1;
  e.at = now;
  e.site = site;
  e.event = event;
  e.service = service;
  e.score = score;
  events_.push_back(std::move(e));
}

std::string SiteHealthMonitor::serialize_events() const {
  std::string out;
  out.reserve(events_.size() * 64);
  char buf[64];
  for (const BreakerEvent& e : events_) {
    out += std::to_string(e.seq);
    std::snprintf(buf, sizeof(buf), "|t=%.3f", e.at.to_seconds());
    out += buf;
    out += '|';
    out += e.site;
    out += '|';
    out += e.event;
    out += '|';
    out += e.service;
    std::snprintf(buf, sizeof(buf), "|score=%.6f\n", e.score);
    out += buf;
  }
  return out;
}

}  // namespace grid3::health
