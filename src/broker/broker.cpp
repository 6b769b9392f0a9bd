#include "broker/broker.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>

#include "mds/schema.h"

namespace grid3::broker {

namespace {

/// How long a failed site stays excluded for the job that failed there.
constexpr Time kFailedSiteCooloff = Time::minutes(15);
/// Predicted 1-minute load above which no further jobs are bound to a
/// gatekeeper (kept below the ~400 overload knee).
constexpr double kLoadCeiling = 320.0;
/// Predicted load contribution per staging-factor unit of in-flight
/// brokered submissions (each job contributes its own 1-4x
/// gram::staging_load_factor, matching the gatekeeper's load model).
constexpr double kInflightLoadWeight = 0.45;
/// Rank boost for the site named by JobSpec::source_site (where the
/// job's staged input physically sits): consumers chase their data.
constexpr double kSourceAffinity = 4.0;
/// Rank multiplier applied to every site while matching from a frozen
/// stale view (uniform, so argmax order and stochastic draw
/// proportions are unchanged -- it only shows up in logged scores).
constexpr double kStaleRankPenalty = 0.5;

}  // namespace

void report_gram_outcome(health::SiteHealthMonitor& health,
                         const std::string& site,
                         const std::string& storage_site,
                         const gram::GramResult& r, Time requested_walltime,
                         Time now) {
  switch (r.status) {
    case gram::GramStatus::kCompleted:
      health.report(site, health::Service::kSubmit, true, now);
      health.report_batch(site, true, r.submitted, r.finished,
                          requested_walltime, now);
      break;
    case gram::GramStatus::kGatekeeperDown:
    case gram::GramStatus::kGatekeeperOverloaded:
      health.report(site, health::Service::kSubmit, false, now);
      break;
    case gram::GramStatus::kStageInFailed:
    case gram::GramStatus::kStageOutFailed:
      health.report(site, health::Service::kTransfer, false, now);
      break;
    case gram::GramStatus::kDiskFull:
      health.report(storage_site, health::Service::kStorage, false, now);
      break;
    case gram::GramStatus::kEnvironmentError:
      // The black-hole signature: the site accepts the job, then the
      // environment kills it.  Unconditionally a batch-service failure
      // (the job may run its full slot before dying, so the fast-fail
      // test would miss it).
      health.report(site, health::Service::kBatch, false, now);
      break;
    case gram::GramStatus::kJobKilled:
      health.report_batch(site, false, r.submitted, r.finished,
                          requested_walltime, now);
      break;
    case gram::GramStatus::kAuthenticationFailed:
    case gram::GramStatus::kSubmitRejected:
    case gram::GramStatus::kProxyExpired:
    case gram::GramStatus::kApplicationError:
      // Application bugs, auth/proxy problems, and submit-side rejections
      // say nothing about the site's health.
      break;
  }
}

ResourceBroker::ResourceBroker(sim::Simulation& sim, BrokerConfig cfg,
                               std::unique_ptr<RankPolicy> policy,
                               const mds::Giis& giis,
                               const monitoring::MonalisaRepository* monitor,
                               GatekeeperDirectory& gatekeepers,
                               gram::CondorG& condor_g)
    : sim_{sim},
      cfg_{cfg},
      policy_{std::move(policy)},
      giis_{giis},
      monitor_{monitor},
      gatekeepers_{gatekeepers},
      condor_g_{condor_g},
      rng_{cfg.rng_seed},
      ids_{std::make_shared<core::IdRegistry>()} {}

void ResourceBroker::set_id_registry(std::shared_ptr<core::IdRegistry> ids) {
  assert(ids != nullptr);
  assert(inflight_.size() == 0 &&
         "share the registry before the broker carries traffic");
  ids_ = std::move(ids);
  // Site numbering changed: drop every id-keyed cache.
  view_valid_ = false;
  view_index_.clear();
  gatekeeper_load_ids_.clear();
  inflight_.clear();
  inflight_staging_.clear();
}

const std::vector<SiteView>& ResourceBroker::view(Time now) {
  if (!view_valid_ || now - view_refreshed_ >= kViewTtl) {
    refresh_view(now);
  }
  return view_;
}

void ResourceBroker::refresh_view(Time now) {
  // Collective-outage degradation: while the GIIS is down, matching
  // continues against the frozen last-known-good view (flagged stale,
  // rank-penalised) until the view is stale_view_max past its refresh;
  // beyond that the view empties and view_outage_ turns "no site" into
  // defer-not-fail.  stale_view_max zero = legacy behaviour: the
  // rebuild below empties the view and jobs fail with kSubmitRejected.
  if (!giis_.available() && cfg_.stale_view_max > Time::zero()) {
    if (view_valid_ && now - view_refreshed_ <= cfg_.stale_view_max) {
      view_stale_ = true;  // freeze: keep view_ intact
      return;
    }
    view_stale_ = false;
    if (!view_outage_) {
      view_outage_ = true;
      view_.clear();
      view_index_.assign(ids_->sites.size(), -1);
    }
    return;  // re-checked on every view() call until the GIIS recovers
  }
  view_stale_ = false;
  view_outage_ = false;
  view_.clear();
  auto snaps = giis_.find(
      [](const mds::SiteSnapshot&) { return true; }, now);
  view_.reserve(snaps.size());
  for (auto& snap : snaps) {
    SiteView v;
    v.site = snap.site;
    v.id = ids_->sites.intern(snap.site);
    v.gk = gatekeepers_.gatekeeper(snap.site);
    v.fresh = snap.fresh;
    using mds::DynamicAttr;
    v.total_cpus = static_cast<int>(
        snap.get_int(DynamicAttr::kTotalCpus).value_or(0));
    v.free_cpus = static_cast<int>(
        snap.get_int(DynamicAttr::kFreeCpus).value_or(0));
    v.running_jobs = static_cast<int>(
        snap.get_int(DynamicAttr::kRunningJobs).value_or(0));
    v.waiting_jobs = static_cast<int>(
        snap.get_int(DynamicAttr::kWaitingJobs).value_or(0));
    if (auto limit = snap.get_int(mds::glue::kMaxWallClockMinutes);
        limit.has_value()) {
      v.max_walltime = Time::minutes(static_cast<double>(*limit));
    }
    v.outbound =
        snap.get_bool(mds::grid3ext::kOutboundConnectivity).value_or(false);
    if (auto gb = snap.get_double(DynamicAttr::kSeAvailableGb)) {
      v.se_free_gb = *gb;
    }
    if (auto gbh = snap.get_double(DynamicAttr::kSeDrainGbPerHour)) {
      v.se_drain_gb_per_hour = *gbh;
    }
    if (monitor_ != nullptr) {
      // A site's gauge id is known once its agent first reported.
      monitoring::MetricId& load = gatekeeper_load_ids_.at_or_grow(v.id);
      if (!load.valid()) {
        load = monitor_->find(v.site, monitoring::mlmetric::kGatekeeperLoad);
      }
      v.gatekeeper_load = monitor_->read(load, now).value_or(0.0);
    }
    v.snapshot = std::move(snap);
    view_.push_back(std::move(v));
  }
  std::sort(view_.begin(), view_.end(),
            [](const SiteView& a, const SiteView& b) { return a.site < b.site; });
  view_index_.assign(ids_->sites.size(), -1);
  for (std::size_t i = 0; i < view_.size(); ++i) {
    view_index_.at_or_grow(view_[i].id) = static_cast<std::int32_t>(i);
  }
  view_refreshed_ = now;
  view_valid_ = true;
}

bool ResourceBroker::meets_requirements(const JobSpec& spec,
                                        std::string_view app_key,
                                        const SiteView& site) const {
  if (!spec.required_app.empty() && !site.snapshot.has(app_key)) {
    return false;
  }
  if (site.snapshot.has(mds::DynamicAttr::kFreeCpus) &&
      site.free_cpus < spec.min_free_cpus) {
    return false;
  }
  const Time needed =
      Time::seconds(spec.runtime.to_seconds() * spec.walltime_slack);
  if (site.max_walltime < needed) return false;
  if (spec.need_outbound && !site.outbound) return false;
  return true;
}

namespace {

/// How far ahead the broker credits a draining SE's tape-migration
/// throughput when the SE is full right now (matches the archive
/// drain cycles the placement ablation models).
constexpr double kDrainLookaheadHours = 4.0;

/// Storage-headroom rank factor for `need_gb` of local footprint: sites
/// whose disks barely cover it are downweighted, and sites that would
/// fail the allocation outright become a last resort.  Disk-full
/// thereby shifts from a submit-time failure to a rank penalty.
double storage_headroom_for(double need_gb, const SiteView& site) {
  if (need_gb <= 0.0 || site.se_free_gb <= 0.0) return 1.0;
  if (site.se_free_gb <= need_gb) {
    // Full right now.  A draining archive (tape migration emptying the
    // SE at a published GB/h) is a temporary wait, not a structural
    // dead end: credit the space the drain frees within the lookahead
    // window so such sites outrank the truly full ones instead of
    // tying with them at the floor.
    const double effective =
        site.se_free_gb + site.se_drain_gb_per_hour * kDrainLookaheadHours;
    if (effective > need_gb) {
      return std::min(0.25, 0.05 * effective / need_gb);
    }
    return 0.01;
  }
  return std::min(1.0, site.se_free_gb / (8.0 * need_gb));
}

double storage_headroom(const JobSpec& spec, const SiteView& site) {
  return storage_headroom_for((spec.stage_in + spec.scratch).to_gb(), site);
}

}  // namespace

double ResourceBroker::policy_term(const JobSpec& spec, const SiteView& site,
                                   Time now) {
  ++rank_evals_;
  // The view's free-CPU count is stale within the TTL: submissions this
  // broker already has in flight there have not been seen by the GIIS.
  // Score against the net free slots so a burst of siblings does not
  // all pile onto the site that looked emptiest five minutes ago.
  if (const int inf = inflight(site.id); inf > 0) {
    SiteView adjusted = site;
    adjusted.free_cpus = std::max(0, site.free_cpus - inf);
    return policy_->score(spec, adjusted, now);
  }
  return policy_->score(spec, site, now);
}

ResourceBroker::RankPass ResourceBroker::begin_pass(const JobSpec& spec,
                                                    Time now) {
  RankPass pass;
  pass.view = &view(now);
  ++match_cycles_;
  // Placement-aware ranking only with a ledger attached, so the
  // ledger-free broker keeps its established match log byte-for-byte.
  // The chain factor is site-independent, so one evaluation serves the
  // whole candidate ordering.
  if (ledger_ != nullptr) pass.chain = chain_headroom(spec);
  if (!spec.source_site.empty()) {
    pass.source = ids_->sites.find(spec.source_site);
  }
  return pass;
}

double ResourceBroker::effective_score(const JobSpec& spec,
                                       const SiteView& site, Time now,
                                       const RankPass& pass) {
  double score = policy_term(spec, site, now);
  // The archive chain's headroom is site-independent (it scores the
  // stage-out destination, not the execution site), so it scales every
  // candidate equally: argmax order and weighted-draw proportions are
  // untouched, but the logged score reflects how starved the job's
  // archive options are.
  if (ledger_ != nullptr) {
    score *= storage_headroom(spec, site) * pass.chain;
  }
  // Data affinity: the site already holding this job's input data
  // (typically a sibling's intermediate product) is boosted so the
  // consumer chases its data instead of pricing a WAN transfer.  The
  // hint stands on its own: a provisionally co-located consumer carries
  // no folded stage-in bytes, yet its data is just as immobile.
  if (site.id == pass.source) score *= kSourceAffinity;
  // Matching from a frozen stale view: a uniform penalty, so argmax
  // order and stochastic draw proportions are untouched, but logged
  // scores show the decision was made on degraded information.
  if (view_stale_) score *= kStaleRankPenalty;
  return score;
}

double ResourceBroker::chain_headroom(const JobSpec& spec) const {
  if (spec.stage_out_site.empty() || spec.stage_out == Bytes::zero()) {
    return 1.0;
  }
  const double need_gb = spec.stage_out.to_gb();
  double best = -1.0;
  auto consider = [&](const std::string& se) {
    if (health_ != nullptr && health_->quarantined(se)) return;
    const std::int32_t idx =
        view_index_.get(ids_->sites.find(se), std::int32_t{-1});
    if (idx < 0) return;
    best = std::max(best, storage_headroom_for(need_gb, view_[idx]));
  };
  consider(spec.stage_out_site);
  for (const std::string& se : spec.stage_out_fallbacks) consider(se);
  // No chain SE in the view (archive outside the GIIS): neutral.
  return best < 0.0 ? 1.0 : best;
}

const SiteView* ResourceBroker::rank_and_pick(
    const JobSpec& spec, const std::vector<const SiteView*>& sites, Time now,
    const RankPass& pass, double* chosen_score) {
  if (sites.empty()) return nullptr;
  std::vector<double> scores;
  scores.reserve(sites.size());
  for (const SiteView* s : sites) {
    scores.push_back(effective_score(spec, *s, now, pass));
  }
  std::size_t pick = 0;
  if (policy_->stochastic()) {
    std::vector<double> weights = scores;
    for (double& w : weights) w = std::max(w, 1e-9);
    pick = rng_.weighted_index(weights);
  } else {
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[pick]) pick = i;  // ties: first (name order)
    }
  }
  if (chosen_score != nullptr) *chosen_score = scores[pick];
  return sites[pick];
}

std::optional<std::string> ResourceBroker::choose(const JobSpec& spec,
                                                  Time now) {
  const RankPass pass = begin_pass(spec, now);
  const auto healthy = [this](const SiteView& v) {
    return health_ == nullptr || !health_->quarantined(v.site);
  };
  std::vector<const SiteView*> pool;
  if (spec.candidates.empty()) {
    const std::string key = mds::app_attribute(spec.required_app);
    for (const SiteView& v : *pass.view) {
      if (meets_requirements(spec, key, v) && healthy(v)) pool.push_back(&v);
    }
  } else {
    // Candidate membership as a bitset test instead of a linear
    // std::find over the name list per view site.  find (not intern) is
    // enough: a name this registry has never seen cannot be in view_.
    scratch_bits_.clear();
    for (const std::string& c : spec.candidates) {
      if (const core::SiteId id = ids_->sites.find(c); id.valid()) {
        scratch_bits_.set(id);
      }
    }
    for (const SiteView& v : *pass.view) {
      if (scratch_bits_.test(v.id) && healthy(v)) pool.push_back(&v);
    }
  }
  const SiteView* picked = rank_and_pick(spec, pool, now, pass, nullptr);
  if (picked == nullptr) return std::nullopt;
  return picked->site;
}

void ResourceBroker::submit(JobSpec spec, gram::GramJob job,
                            BrokeredCallback done) {
  ++submissions_;
  auto p = std::make_shared<Pending>();
  p->spec = std::move(spec);
  p->job = std::move(job);
  p->done = std::move(done);
  p->created = sim_.now();
  try_match(p);
}

int ResourceBroker::gang_capacity(const SiteView& site) const {
  const int inf = inflight(site.id);
  // Free slots the view advertises, net of what this broker already has
  // in flight there, bounded by the per-site throttle.
  int cap = std::min(site.free_cpus - inf, cfg_.max_inflight_per_site - inf);
  // Load-ceiling headroom in burst units: submitting n gang members in
  // the same minute adds n * kBurstWeight to the gatekeeper's section
  // 6.4 burst term, so the site can absorb at most headroom/kBurstWeight
  // members before the broker's own ceiling would be crossed.  (match_gang
  // only asks about sites whose gatekeeper resolves.)
  const double headroom = kLoadCeiling - predicted_load(site);
  if (headroom <= 0.0) return 0;
  cap = std::min(cap, static_cast<int>(headroom /
                                       gram::Gatekeeper::kBurstWeight));
  return std::max(cap, 0);
}

GangPlacement ResourceBroker::match_gang(const GangSpec& gang, Time now) {
  GangPlacement out;
  out.member_sites.assign(gang.members.size(), std::string{});
  if (gang.members.empty()) return out;
  const std::vector<SiteView>& sites = view(now);
  ++match_cycles_;

  // The level's aggregate disk footprint at one site: every member's
  // stage-in + scratch plus the intermediates the level parks for its
  // consumers.  This is what the gang lease will reserve.
  double need_gb = gang.intermediates.to_gb();
  for (const JobSpec& m : gang.members) {
    need_gb += (m.stage_in + m.scratch).to_gb();
  }

  const JobSpec& representative = gang.members.front();
  std::vector<std::string> keys;
  keys.reserve(gang.members.size());
  for (const JobSpec& m : gang.members) {
    keys.push_back(mds::app_attribute(m.required_app));
  }

  struct Candidate {
    const SiteView* site;
    double score;
    int capacity;
  };
  std::vector<Candidate> pool;
  for (const SiteView& v : sites) {
    if (v.gk == nullptr) continue;
    // Quarantine beats any rank score: a black hole's deceptively empty
    // queue must not win the whole level.
    if (health_ != nullptr && health_->quarantined(v.site)) continue;
    bool all_eligible = true;
    for (std::size_t i = 0; i < gang.members.size(); ++i) {
      if (!meets_requirements(gang.members[i], keys[i], v)) {
        all_eligible = false;
        break;
      }
    }
    if (!all_eligible) continue;
    const int cap = gang_capacity(v);
    if (cap <= 0) continue;
    // Rank sites, not jobs: the policy scores the representative member
    // against the view net of in-flight bindings, then the whole
    // level's footprint sets the storage headroom (ledger-gated like
    // per-job ranking, so the ledger-free broker stays byte-identical).
    double score = policy_term(representative, v, now);
    if (ledger_ != nullptr) score *= storage_headroom_for(need_gb, v);
    pool.push_back({&v, score, cap});
  }
  if (pool.empty()) return out;

  const int width = static_cast<int>(gang.members.size());

  // Whole fit: the best site whose capacity covers the gang width takes
  // every member.  Deterministic argmax; ties go to the first candidate
  // in name order (view_ is name-sorted), matching rank_and_pick.
  const Candidate* whole = nullptr;
  for (const Candidate& c : pool) {
    if (c.capacity < width) continue;
    if (whole == nullptr || c.score > whole->score) whole = &c;
  }
  if (whole != nullptr) {
    out.placed = true;
    out.primary = whole->site->site;
    out.primary_members = gang.members.size();
    for (auto& s : out.member_sites) s = out.primary;
    return out;
  }

  // Split fallback (policy documented on GangPlacement): order sites by
  // score (ties by name -- stable sort preserves the name order the
  // pool was built in), then assign members greedily in member order,
  // each site taking up to its capacity.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.score > b.score;
                   });
  std::size_t next = 0;
  std::size_t best_count = 0;
  for (const Candidate& c : pool) {
    if (next >= gang.members.size()) break;
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(c.capacity),
                              gang.members.size() - next);
    if (take == 0) continue;
    for (std::size_t i = 0; i < take; ++i) {
      out.member_sites[next++] = c.site->site;
    }
    // Primary = most members; ties to the better-ranked (earlier) site.
    if (take > best_count) {
      best_count = take;
      out.primary = c.site->site;
      out.primary_members = take;
    }
  }
  out.placed = next > 0;
  out.split = out.placed;
  return out;
}

void ResourceBroker::submit_gang(GangSpec gang,
                                 std::vector<gram::GramJob> jobs,
                                 GangMemberCallback done) {
  const Time now = sim_.now();
  const GangPlacement placement = match_gang(gang, now);
  ++gang_matches_;
  if (placement.split) ++gang_splits_;

  auto state = std::make_shared<GangState>();
  state->id = gang.gang_id;
  state->outstanding = static_cast<int>(gang.members.size());

  // Gang-scoped lease: reserve the level's intermediate products at the
  // primary before any member binds.  On a split only the primary's
  // pro-rated share is reserved -- off-primary intermediates cross the
  // WAN regardless, so holding primary disk for them would just starve
  // other gangs.  kNoStorage (unmanaged SE) and kDiskFull both degrade
  // to an unleased gang rather than blocking the level.
  if (placement.placed && ledger_ != nullptr &&
      gang.intermediates > Bytes::zero()) {
    Bytes share = gang.intermediates;
    if (placement.split) {
      share = Bytes::of(gang.intermediates.count() *
                        static_cast<std::int64_t>(placement.primary_members) /
                        static_cast<std::int64_t>(gang.members.size()));
    }
    if (share > Bytes::zero()) {
      const auto res = ledger_->acquire(placement.primary, share,
                                        "gang:" + gang.gang_id, {}, now);
      if (res.leased()) {
        state->lease = res.lease;
        // Track the gang so a breaker trip at the primary can return the
        // reservation mid-flight.
        live_gangs_.emplace_back(placement.primary, state);
      }
    }
  }

  auto member_done = std::make_shared<GangMemberCallback>(std::move(done));
  for (std::size_t i = 0; i < gang.members.size(); ++i) {
    ++submissions_;
    auto p = std::make_shared<Pending>();
    p->spec = std::move(gang.members[i]);
    if (i < jobs.size()) p->job = std::move(jobs[i]);
    p->created = now;
    p->gang = state;
    p->gang_site = placement.member_sites[i];
    p->done = [member_done, i](const BrokeredResult& r) {
      (*member_done)(i, r);
    };
    // Each member is its own model-checker actor ("gm:<gang>:<i>"); the
    // assigned site is a shared resource key, so members co-located on
    // one site -- and anything else touching that site, like a breaker
    // trip -- stay mutually dependent while members on different sites
    // commute.
    const std::string& site = placement.member_sites[i];
    sim::Simulation::ScopedTag tag{
        sim_,
        "gm:" + gang.gang_id + ":" + std::to_string(i) + "|site:" +
            (site.empty() ? "unbound" : site),
        sim::Simulation::ScopedTag::kReplace};
    try_match(p);
  }
}

double ResourceBroker::predicted_load(const SiteView& site) const {
  // Weight in-flight submissions by their jobmanager staging factor, the
  // same 2-4x the gatekeeper's own load model applies: a job archiving
  // gigabytes through its jobmanager loads the gatekeeper harder than a
  // no-staging probe, and the view's MonALISA sample hasn't seen either.
  const double staged = inflight_staging_.get(site.id, 0.0);
  return site.gatekeeper_load + kInflightLoadWeight * staged;
}

int ResourceBroker::inflight(const std::string& site) const {
  return inflight_.get(ids_->sites.find(site), 0);
}

std::vector<placement::LeaseId> ResourceBroker::live_gang_leases() const {
  std::vector<placement::LeaseId> out;
  for (const auto& [site, weak] : live_gangs_) {
    if (auto gang = weak.lock(); gang != nullptr && gang->lease != 0) {
      out.push_back(gang->lease);
    }
  }
  return out;
}

std::vector<const SiteView*> ResourceBroker::admissible(
    Pending& p, Time now, bool* any_deferred) {
  const std::vector<SiteView>& sites = view(now);
  // A GIIS outage past the staleness bound empties the pool, but the
  // sites are not gone -- the index is.  Defer so the job waits for the
  // index to recover instead of failing with kSubmitRejected.
  if (view_outage_) *any_deferred = true;
  std::vector<const SiteView*> out;
  auto consider = [&](const SiteView& v) {
    if (auto it = p.excluded_until.find(v.site);
        it != p.excluded_until.end() && now < it->second) {
      *any_deferred = true;
      return;
    }
    // Quarantined sites defer rather than disqualify: the breaker
    // re-admits them after probation, so the job waits for the grid to
    // heal instead of failing with "no eligible site".
    if (health_ != nullptr && health_->quarantined(v.site)) {
      *any_deferred = true;
      return;
    }
    if (inflight(v.id) >= cfg_.max_inflight_per_site ||
        predicted_load(v) >= kLoadCeiling) {
      *any_deferred = true;
      return;
    }
    if (v.gk == nullptr) return;
    out.push_back(&v);
  };
  if (p.spec.candidates.empty()) {
    const std::string key = mds::app_attribute(p.spec.required_app);
    for (const SiteView& v : sites) {
      if (meets_requirements(p.spec, key, v)) consider(v);
    }
  } else {
    if (!p.bits_built) {
      // Intern (not find): a candidate the GIIS has not shown yet must
      // still get a bit, so it is recognised when a later refresh brings
      // it into the view.  Registration order stays deterministic -- the
      // planner emits candidate lists in the same order every run.
      for (const std::string& c : p.spec.candidates) {
        p.candidate_bits.set(ids_->sites.intern(c));
      }
      p.candidate_distinct = p.candidate_bits.count();
      p.bits_built = true;
    }
    std::size_t found = 0;
    for (const SiteView& v : sites) {
      if (p.candidate_bits.test(v.id)) {
        ++found;
        consider(v);
      }
    }
    // Candidates missing from the view (GRIS outage past TTL) may return;
    // treat them as deferred rather than gone.
    if (found < p.candidate_distinct) *any_deferred = true;
  }
  return out;
}

void ResourceBroker::record_match(const Pending& p, const SiteView& site,
                                  double score, std::size_t pool_size) {
  MatchDecision d;
  d.seq = static_cast<std::uint64_t>(log_.size()) + 1;
  d.at = sim_.now();
  d.vo = p.spec.vo;
  d.app = p.spec.app;
  d.policy = policy_->name();
  d.site = site.site;
  d.candidates = pool_size;
  d.rebind = p.rebinds;
  d.score = score;
  log_.push_back(d);
  if (view_stale_) ++stale_matches_;
}

void ResourceBroker::try_match(const std::shared_ptr<Pending>& p) {
  const Time now = sim_.now();
  const RankPass pass = begin_pass(p->spec, now);
  bool any_deferred = false;
  const auto pool = admissible(*p, now, &any_deferred);

  if (pool.empty()) {
    if (any_deferred) {
      if (cfg_.hold.budget_exhausted(now - p->created)) {
        // Saturated too long: surface as an overload, the failure class
        // the broker exists to prevent (or as disk-full when the last
        // defer was a full destination SE).  Storage-blocked jobs were
        // matchable; the placement layer is what refused them, so the
        // failure attributes as a site (storage) problem, not as "no
        // eligible site".
        give_up(p, p->last,
                p->storage_blocked ? gram::GramStatus::kDiskFull
                                   : gram::GramStatus::kGatekeeperOverloaded,
                p->storage_blocked || p->rebinds > 0);
        return;
      }
      hold(p);
      return;
    }
    // No eligible site at all: permanent, the kNoEligibleSite analogue.
    give_up(p, gram::GramResult{}, gram::GramStatus::kSubmitRejected, false);
    return;
  }

  // Secure the stage-out destination before binding: a full destination
  // SE becomes a match-time wait here instead of a disk-full stage-out
  // failure after the compute cycles are spent.
  if (!ensure_lease(*p, now)) {
    ++storage_holds_;
    p->storage_blocked = true;
    if (cfg_.hold.budget_exhausted(now - p->created)) {
      // Matchable; storage refused it (see above).
      give_up(p, p->last, gram::GramStatus::kDiskFull, true);
      return;
    }
    hold(p);
    return;
  }
  p->storage_blocked = false;

  double score = 0.0;
  const SiteView* picked = nullptr;
  // Gang members pin their first match to the site the gang placement
  // assigned, provided it is still admissible (it can saturate between
  // match_gang and this submission).  The pin is one-shot: re-matches
  // after a transient failure rank freely, since the failure already
  // broke the co-location.
  if (!p->gang_site.empty()) {
    const core::SiteId pin = ids_->sites.find(p->gang_site);
    for (const SiteView* s : pool) {
      if (s->id == pin) {
        picked = s;
        score = effective_score(p->spec, *s, now, pass);
        break;
      }
    }
    p->gang_site.clear();
  }
  if (picked == nullptr) {
    picked = rank_and_pick(p->spec, pool, now, pass, &score);
  }
  record_match(*p, *picked, score, pool.size());

  p->bound_site = picked->site;
  p->bound_id = picked->id;
  ++inflight_.at_or_grow(picked->id);
  inflight_staging_.at_or_grow(picked->id) +=
      gram::staging_load_factor(p->spec.stage_in, p->spec.stage_out);
  auto self = p;
  condor_g_.submit_to(*picked->gk, p->job,
                      [this, self](const gram::GramResult& r) {
                        on_result(self, r);
                      });
}

void ResourceBroker::on_result(const std::shared_ptr<Pending>& p,
                               const gram::GramResult& r) {
  if (p->bound_id.valid()) {
    if (int& n = inflight_.at_or_grow(p->bound_id); n > 0) --n;
    double& s = inflight_staging_.at_or_grow(p->bound_id);
    s -= gram::staging_load_factor(p->spec.stage_in, p->spec.stage_out);
    if (s <= 1e-9) s = 0.0;  // clamp drift exactly as the erase did
  }
  // A slot freed: give held jobs a prompt re-match.
  if (!waiting_.empty() && !kick_scheduled_) {
    kick_scheduled_ = true;
    // "rb" marks every broker timer as touching the shared broker state
    // (waiting_ queue, in-flight counters): the model checker may permute
    // a kick against another actor's retry, but never declare them
    // independent.
    sim::Simulation::ScopedTag tag{sim_, "rb",
                                   sim::Simulation::ScopedTag::kAppend};
    sim_.schedule_in(Time::seconds(1), [this] { kick_waiting(); });
  }

  // The submission resolved, so the lease's job is done: consume it
  // (output archived where the job really ran) or give the space back.
  // Re-matches acquire a fresh lease, so reserved space never leaks
  // across rebinds.
  drop_lease(*p, r.ok());

  if (health_ != nullptr) {
    // A full disk is the archive SE's, not the execution site's: score
    // the SE the stage-out targeted (the resolved chain SE, or the
    // primary when unleased).
    const std::string& se = !p->resolved_se.empty() ? p->resolved_se
                            : !p->spec.stage_out_site.empty()
                                ? p->spec.stage_out_site
                                : p->bound_site;
    report_gram_outcome(*health_, p->bound_site, se, r,
                        p->job.request.requested_walltime, sim_.now());
  }

  // Once the breaker has condemned the site, an environment kill or a
  // stage-out failure there is the site's fault, not the job's: treat it
  // as retryable even though the status is normally terminal.  Note the
  // ordering above -- health is scored first, so the very failure that
  // trips the breaker already re-matches instead of dying.
  const bool site_fault_at_quarantined =
      health_ != nullptr && health_->quarantined(p->bound_site) &&
      (r.status == gram::GramStatus::kEnvironmentError ||
       r.status == gram::GramStatus::kStageOutFailed ||
       r.status == gram::GramStatus::kJobKilled);
  if (r.ok() ||
      (!gram::is_transient(r.status) && !site_fault_at_quarantined)) {
    resolve(p, r);
    return;
  }

  // Transient: cool the site off for this job and re-match elsewhere.
  // Failing at a site the breaker has since quarantined is the grid's
  // fault, not the job's: the re-match is free, so a black hole cannot
  // drain a job's whole rebind budget before the breaker trips.
  const bool free_rebind =
      health_ != nullptr && health_->quarantined(p->bound_site);
  p->last = r;
  p->excluded_until[p->bound_site] = sim_.now() + kFailedSiteCooloff;
  if (!free_rebind && !kRebind.allows(p->rebinds)) {
    resolve(p, r);
    return;
  }
  if (!free_rebind) ++p->rebinds;
  ++rebinds_;
  const double backoff = kRebind.delay_seconds(p->rebinds);
  auto self = p;
  sim::Simulation::ScopedTag tag{sim_, "rb",
                                 sim::Simulation::ScopedTag::kAppend};
  sim_.schedule_in(Time::seconds(backoff), [this, self] { try_match(self); });
}

void ResourceBroker::hold(const std::shared_ptr<Pending>& p) {
  ++p->holds;
  ++holds_;
  waiting_.push_back(p);
  // Per-job retry with deterministic jitter: a saturated grid holds many
  // jobs in the same tick, and a shared timer would re-release them as
  // one thundering herd against the first site to free a slot.
  const double delay = cfg_.hold.delay_seconds(1, ++hold_seq_ ^ cfg_.rng_seed);
  auto self = p;
  sim::Simulation::ScopedTag tag{sim_, "rb",
                                 sim::Simulation::ScopedTag::kAppend};
  sim_.schedule_in(Time::seconds(delay), [this, self] { retry_held(self); });
}

void ResourceBroker::retry_held(const std::shared_ptr<Pending>& p) {
  if (mc_seed_stale_hold_release_ && p->lease != 0 && ledger_ != nullptr) {
    // Seeded historical bug (see test_seed_stale_hold_release): "clean
    // up" the job's lease before re-matching.  Held jobs hold no lease,
    // so the canonical event order never trips this -- but when a
    // completion kick re-matched the job earlier in the same tick, this
    // releases the lease its in-flight submission depends on.
    ledger_->release(p->lease);
  }
  // A completion kick may have drained it already.
  auto it = std::find(waiting_.begin(), waiting_.end(), p);
  if (it == waiting_.end()) return;
  waiting_.erase(it);
  try_match(p);
}

void ResourceBroker::on_site_quarantined(const std::string& site) {
  // Held jobs were mostly deferred by saturation elsewhere; with a site
  // freshly removed the distribution changed, so re-match them promptly
  // (and jobs bound for the quarantined site re-rank elsewhere).
  if (!waiting_.empty() && !kick_scheduled_) {
    kick_scheduled_ = true;
    sim::Simulation::ScopedTag tag{sim_, "rb",
                                   sim::Simulation::ScopedTag::kAppend};
    sim_.schedule_in(Time::seconds(1), [this] { kick_waiting(); });
  }
  // Return gang-scoped intermediate reservations parked at the site: the
  // level's co-location is broken anyway, and holding quarantined disk
  // would starve the placement ledger for the whole outage.
  for (auto it = live_gangs_.begin(); it != live_gangs_.end();) {
    auto gang = it->second.lock();
    if (gang == nullptr) {
      it = live_gangs_.erase(it);
      continue;
    }
    if (it->first == site && gang->lease != 0) {
      const placement::LeaseId lease = gang->lease;
      gang->lease = 0;
      if (ledger_ != nullptr) ledger_->release(lease);
      it = live_gangs_.erase(it);
      continue;
    }
    ++it;
  }
}

void ResourceBroker::kick_waiting() {
  kick_scheduled_ = false;
  std::deque<std::shared_ptr<Pending>> batch;
  batch.swap(waiting_);
  for (auto& p : batch) try_match(p);
}

void ResourceBroker::give_up(const std::shared_ptr<Pending>& p,
                             gram::GramResult gram, gram::GramStatus status,
                             bool matched) {
  BrokeredResult r;
  r.gram = std::move(gram);
  r.gram.status = status;
  r.gram.submitted = p->created;
  r.gram.finished = sim_.now();
  r.rebinds = p->rebinds;
  r.holds = p->holds;
  r.matched = matched;
  finish(p, std::move(r));
}

void ResourceBroker::resolve(const std::shared_ptr<Pending>& p,
                             const gram::GramResult& r) {
  BrokeredResult out;
  out.gram = r;
  out.site = p->bound_site;
  // Where the lease (and hence the archived output) actually landed:
  // RLS registration must follow this, not the spec's primary SE.
  if (r.ok()) out.archive_site = p->resolved_se;
  out.rebinds = p->rebinds;
  out.holds = p->holds;
  out.matched = true;
  finish(p, std::move(out));
}

void ResourceBroker::finish(const std::shared_ptr<Pending>& p,
                            BrokeredResult result) {
  drop_lease(*p, false);  // no-op unless a path left one behind
  leave_gang(*p);
  if (p->done) {
    auto done = std::move(p->done);
    p->done = nullptr;
    done(result);
  }
}

void ResourceBroker::leave_gang(Pending& p) {
  if (p.gang == nullptr) return;
  auto gang = std::move(p.gang);
  p.gang = nullptr;
  if (--gang->outstanding > 0) return;
  // Last member out: release the gang-scoped intermediates reservation.
  // Clearing `lease` first makes the release single-shot even if a
  // future path ever re-enters (success, failure and hold-expiry all
  // drain through finish -> leave_gang).
  if (const placement::LeaseId lease = gang->lease; lease != 0) {
    gang->lease = 0;
    if (ledger_ != nullptr) ledger_->release(lease);
  }
}

bool ResourceBroker::ensure_lease(Pending& p, Time now) {
  p.job.stage_out_srm = nullptr;
  p.job.stage_out_reservation = 0;
  p.resolved_se.clear();
  if (ledger_ == nullptr) return true;
  if (p.spec.stage_out_site.empty() || p.spec.stage_out == Bytes::zero()) {
    return true;  // no placement intent
  }
  // The placement intent is a failover chain: primary SE first, then
  // the plan-time fallbacks in preference order.  The ledger resolves
  // it to the first SE with room.
  std::vector<std::string> chain;
  chain.reserve(1 + p.spec.stage_out_fallbacks.size());
  chain.push_back(p.spec.stage_out_site);
  for (const std::string& se : p.spec.stage_out_fallbacks) {
    chain.push_back(se);
  }
  const auto res =
      ledger_->acquire(chain, p.spec.stage_out, p.spec.app,
                       p.spec.output_lfns, now);
  // SRM refusals are the storage-service health signal -- attributed to
  // the SEs that actually refused, which on a fallthrough is not the SE
  // that ended up holding the lease.
  if (health_ != nullptr) {
    for (const std::string& se : res.refused_sites) {
      health_->report(se, health::Service::kStorage, false, now);
    }
  }
  switch (res.status) {
    case placement::AcquireStatus::kNoStorage:
      return true;  // unmanaged archive: proceed unleased (status quo)
    case placement::AcquireStatus::kDiskFull:
      return false;
    case placement::AcquireStatus::kLeased:
      if (health_ != nullptr) {
        health_->report(res.site, health::Service::kStorage, true, now);
      }
      break;
  }
  p.lease = res.lease;
  p.resolved_se = res.site;
  p.job.stage_out_srm = ledger_->srm_for(res.lease);
  if (const placement::StageOutLease* l = ledger_->find(res.lease)) {
    p.job.stage_out_reservation = l->reservation;
  }
  // Repoint the stage-out endpoints at the SE the chain resolved to:
  // the gatekeeper archives wherever the lease lives, so a fallthrough
  // needs no downstream special-casing.
  if (gridftp::GridFtpServer* ftp = ledger_->ftp_for(res.lease)) {
    p.job.stage_out_dest = ftp;
  }
  if (srm::DiskVolume* vol = ledger_->volume_for(res.lease)) {
    p.job.stage_out_volume = vol;
  }
  return true;
}

void ResourceBroker::drop_lease(Pending& p, bool consumed) {
  if (p.lease == 0) return;
  if (ledger_ != nullptr) {
    if (consumed) {
      ledger_->consume(p.lease);
    } else {
      ledger_->release(p.lease);
    }
  }
  p.lease = 0;
  p.job.stage_out_srm = nullptr;
  p.job.stage_out_reservation = 0;
}

std::string ResourceBroker::serialize_match_log() const {
  std::string out;
  out.reserve(log_.size() * 96);
  char buf[64];
  for (const MatchDecision& d : log_) {
    out += std::to_string(d.seq);
    std::snprintf(buf, sizeof(buf), "|t=%.3f", d.at.to_seconds());
    out += buf;
    out += '|';
    out += d.vo;
    out += '|';
    out += d.app;
    out += '|';
    out += d.policy;
    out += '|';
    out += d.site;
    std::snprintf(buf, sizeof(buf), "|pool=%zu|rebind=%d|score=%.6f\n",
                  d.candidates, d.rebind, d.score);
    out += buf;
  }
  return out;
}

}  // namespace grid3::broker
