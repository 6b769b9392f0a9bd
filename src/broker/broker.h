// Grid-wide resource broker: the grid-level scheduler Grid2003 lacked.
//
// Sits between the Pegasus planner / Condor-G submitters and the GRAM
// gatekeepers (the role the EU DataGrid Resource Broker played for the
// CMS testbeds).  Four responsibilities:
//
//  1. View: a TTL-cached picture of every site, assembled from the MDS
//     GIIS (GLUE attributes: free CPUs, queue depth, walltime limits,
//     SE free space) joined with the MonALISA repository's gatekeeper
//     1-minute load gauge (the section 6.4 load model).
//  2. Matchmaking: rank eligible sites with a pluggable RankPolicy and
//     bind the job -- weighted draw for stochastic policies (the
//     favorite-sites status quo), deterministic argmax otherwise.
//     Every decision is appended to the match log, the one store of
//     match decisions.
//  3. Late binding: jobs are matched at dispatch time, re-matched onto a
//     different site when a submission fails transiently (exponential
//     backoff, per-job site cool-off), and throttled per gatekeeper so
//     brokered submissions cannot drive the section 6.4 load model past
//     its overload knee; jobs with no admissible site wait inside the
//     broker instead of piling onto a saturated gatekeeper.
//  4. Gang matching: the sibling jobs of one DAG level (CMS/ATLAS
//     production stages whose outputs feed a common merge) are matched
//     as a unit.  match_gang ranks *sites* by whether the whole gang
//     fits -- free slots against the gang width, storage headroom for
//     the level's aggregate intermediates, and the predicted gatekeeper
//     burst of submitting the whole level at once -- and binds every
//     member to one site so intermediate products stay on local shared
//     disk instead of crossing the WAN to wherever each sibling
//     scattered.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "broker/rank_policy.h"
#include "core/ids.h"
#include "gram/condor_g.h"
#include "health/health.h"
#include "mds/giis.h"
#include "monitoring/monalisa.h"
#include "placement/ledger.h"
#include "sim/simulation.h"
#include "util/retry.h"
#include "util/rng.h"

namespace grid3::broker {

/// Resolves site names to gatekeepers.  core::Grid3 implements this with
/// the same member that serves workflow::SiteServices.
class GatekeeperDirectory {
 public:
  virtual ~GatekeeperDirectory() = default;
  [[nodiscard]] virtual gram::Gatekeeper* gatekeeper(
      const std::string& site) = 0;
};

struct BrokerConfig {
  /// Per-gatekeeper throttle: max broker submissions in flight per site.
  int max_inflight_per_site = 60;
  /// Held jobs re-attempt matching on this schedule (also kicked
  /// whenever an in-flight submission completes): period `base`,
  /// stretched per hold by up to `jitter` fraction with u in [0, 1)
  /// hashed from a monotone hold counter (no RNG draw, so
  /// stochastic-policy match logs are unperturbed -- simultaneous holds
  /// across a gang re-probe a freed SE staggered instead of in
  /// lockstep; jitter 0 disables).  A job held past `deadline` fails
  /// back to the submitter.
  util::RetryPolicy hold{.base = Time::minutes(5),
                         .jitter = 0.25,
                         .deadline = Time::hours(12)};
  /// Whether core::Grid3::attach_broker attaches a PlacementLedger: with
  /// one, jobs that carry a placement intent acquire a stage-out lease
  /// (SRM space at the destination SE) before binding; false = the
  /// no-lease baseline (disk-full discovered at stage-out time).  The
  /// broker itself only asks whether a ledger is attached.
  bool placement_leases = true;
  /// Graceful degradation under a GIIS outage: when the index answers
  /// nothing (down, or every snapshot aged out), keep matching against
  /// the last-known-good view for up to this long past its refresh
  /// instead of emptying the pool.  Matches made from the frozen view
  /// are counted as broker.stale_matches.  Once the view is older than
  /// this bound, the broker stops trusting it and *holds* new work
  /// (defer-not-fail) until the index recovers, rather than matching
  /// blind or failing jobs with kSubmitRejected.  Time::zero() disables
  /// the freeze entirely (legacy behaviour: empty view, rejected jobs).
  Time stale_view_max = Time::minutes(30);
  std::uint64_t rng_seed = 0xb20ce5;
};

/// One DAG level submitted for co-located placement: the members'
/// specs plus the level's aggregate intermediate-product volume.
struct GangSpec {
  std::string gang_id;
  /// Bytes the level parks on the execution site's disk for its
  /// consumers (the merge's inputs) -- the gang lease is sized from it.
  Bytes intermediates;
  std::vector<JobSpec> members;
};

/// Where match_gang decided the gang goes.
///
/// Whole placement binds every member to `primary`.  When no site can
/// host the gang whole, the documented split-fallback policy applies:
/// admissible sites are ordered by rank score (ties broken by name),
/// and members are assigned greedily in member order, each site taking
/// as many members as its free capacity admits (free slots net of the
/// broker's own in-flight bindings, the per-site throttle, and the
/// load-ceiling headroom expressed in burst units).  `primary` is then
/// the site hosting the most members (ties: the better-ranked site),
/// and the gang lease shrinks to the primary's pro-rated share of the
/// intermediates, since off-primary products must cross the WAN anyway.
/// Members no site can take are left unassigned (empty string) and fall
/// back to ordinary per-job late binding.
struct GangPlacement {
  bool placed = false;  ///< at least one member has a site
  bool split = false;   ///< the gang did not fit whole
  std::string primary;  ///< site hosting the largest share
  std::vector<std::string> member_sites;  ///< per member; "" = unassigned
  /// Members assigned to `primary` (sizes the pro-rated gang lease).
  std::size_t primary_members = 0;
};

/// One append-only match-log entry.
struct MatchDecision {
  std::uint64_t seq = 0;
  Time at;
  std::string vo;
  std::string app;
  std::string policy;
  std::string site;          ///< chosen execution site
  std::size_t candidates = 0;  ///< admissible sites at decision time
  int rebind = 0;            ///< 0 = initial match, n = nth re-match
  double score = 0.0;
};

struct BrokeredResult {
  gram::GramResult gram;
  std::string site;   ///< final execution site (empty when never matched)
  /// SE the stage-out lease resolved to (empty when the job ran
  /// unleased).  Differs from the spec's stage_out_site when the
  /// placement chain fell through -- RLS registration must follow this
  /// site, because that is where the bytes landed.
  std::string archive_site;
  int rebinds = 0;
  int holds = 0;
  bool matched = false;  ///< false = no eligible site existed
  [[nodiscard]] bool ok() const { return matched && gram.ok(); }
};

using BrokeredCallback = std::function<void(const BrokeredResult&)>;

/// The one classification of a GRAM outcome into site-health feedback,
/// for the broker's late-bound submissions and DAGMan's direct-submit
/// compute nodes alike.  Submit, transfer and batch outcomes score the
/// execution `site` (kJobKilled through the monitor's fast-fail test);
/// kDiskFull scores `storage_site`, the SE the stage-out targeted.
/// Application, authentication, proxy and submit-rejection outcomes say
/// nothing about a site and report nothing.
void report_gram_outcome(health::SiteHealthMonitor& health,
                         const std::string& site,
                         const std::string& storage_site,
                         const gram::GramResult& r, Time requested_walltime,
                         Time now);

/// Per-member completion callback for submit_gang: fires exactly once
/// per member with the member's index in the GangSpec.
using GangMemberCallback =
    std::function<void(std::size_t member, const BrokeredResult&)>;

class ResourceBroker {
 public:
  ResourceBroker(sim::Simulation& sim, BrokerConfig cfg,
                 std::unique_ptr<RankPolicy> policy, const mds::Giis& giis,
                 const monitoring::MonalisaRepository* monitor,
                 GatekeeperDirectory& gatekeepers, gram::CondorG& condor_g);
  ResourceBroker(const ResourceBroker&) = delete;
  ResourceBroker& operator=(const ResourceBroker&) = delete;

  /// Site-view refresh period (staleness the matchmaker tolerates).
  static constexpr Time kViewTtl = Time::minutes(5);
  /// Late binding: the re-match schedule after transient failures.
  /// `max_retries` rebinds per job, first delay `base`, growing by
  /// `factor` per further rebind.
  static constexpr util::RetryPolicy kRebind{
      .base = Time::minutes(2), .factor = 2.0, .max_retries = 4};

  [[nodiscard]] const BrokerConfig& config() const { return cfg_; }
  [[nodiscard]] const RankPolicy& policy() const { return *policy_; }

  /// The cached site view, refreshed when older than the TTL.
  [[nodiscard]] const std::vector<SiteView>& view(Time now);

  /// Rank `candidates` (or the eligible set when empty) and pick a site
  /// without submitting or logging -- the planner's provisional-placement
  /// path.  Returns nullopt when nothing is eligible.
  [[nodiscard]] std::optional<std::string> choose(const JobSpec& spec,
                                                  Time now);

  /// Late-binding submission: match now, submit through Condor-G, re-match
  /// on transient failure.  `done` fires exactly once.
  void submit(JobSpec spec, gram::GramJob job, BrokeredCallback done);

  /// Rank sites for a whole DAG level (no side effects beyond a view
  /// refresh).  A site is admissible for the gang when every member's
  /// eligibility requirements hold there; it fits the gang *whole* when
  /// its free capacity covers the gang width.  Capacity counts free CPUs
  /// net of the broker's own in-flight bindings, the per-site throttle,
  /// and the load ceiling divided into predicted burst units (one
  /// gatekeeper kBurstWeight per member submitted in the same minute --
  /// the section 6.4 burst term the whole level triggers at once).
  /// Whole-fit sites are scored policy * aggregate storage headroom for
  /// stage-in + scratch + the level's intermediates, and the best one
  /// (deterministic argmax, ties to the name-sorted first) takes every
  /// member.  Otherwise the split fallback documented on GangPlacement
  /// applies.
  [[nodiscard]] GangPlacement match_gang(const GangSpec& gang, Time now);

  /// Submit one DAG level as a unit: match_gang picks the placement, a
  /// gang-scoped placement lease reserves the intermediates' bytes at
  /// the primary site (pro-rated on split; skipped when no ledger is
  /// attached or the site's storage is unmanaged), and every member is
  /// late-bound with its first match pinned to its assigned site.
  /// Members keep their individual re-match/backoff behaviour afterwards
  /// -- a transient failure already broke the gang, so survivors are not
  /// dragged along.  The gang lease is released exactly once, when the
  /// last member resolves (success, failure or hold-expiry -- every path
  /// drains through the same release).  `done` fires exactly once per
  /// member, with the member's index.
  void submit_gang(GangSpec gang, std::vector<gram::GramJob> jobs,
                   GangMemberCallback done);

  /// Attach the VO's placement ledger: specs carrying a stage-out intent
  /// get a lease acquired before binding (full destination = match-time
  /// hold), the lease's reservation is threaded into the GramJob, and
  /// the lease is consumed/released when the submission resolves.
  void set_placement(placement::PlacementLedger* ledger) {
    ledger_ = ledger;
  }

  /// Attach the grid's site-health monitor: quarantined sites drop out
  /// of match and gang candidate sets (quarantine beats any rank score),
  /// completion outcomes feed the per-site failure scores, and transient
  /// failures at a quarantined site do not consume the job's rebind
  /// budget (the trip is the grid's fault, not the job's).
  void set_health(health::SiteHealthMonitor* monitor) { health_ = monitor; }

  /// A site just tripped into quarantine: held jobs get a prompt
  /// re-match away from it, and gang leases whose primary is the
  /// quarantined site are returned (their members re-match individually,
  /// so holding the level's disk reservation there would only starve
  /// healthy gangs).  Wired to the monitor's trip observer by
  /// core::Grid3::attach_health.
  void on_site_quarantined(const std::string& site);

  /// Share an id registry (normally core::Grid3's, so every VO broker
  /// agrees on one site numbering).  Must be called before the first
  /// view refresh; by default the broker owns a private registry.
  void set_id_registry(std::shared_ptr<core::IdRegistry> ids);
  /// Interned id of a site name (invalid = never seen by this registry).
  [[nodiscard]] core::SiteId site_id(const std::string& site) const {
    return ids_->sites.find(site);
  }

  // --- introspection / accounting ---
  [[nodiscard]] const std::vector<MatchDecision>& match_log() const {
    return log_;
  }
  /// Canonical one-line-per-decision rendering (determinism tests diff
  /// this byte-for-byte).
  [[nodiscard]] std::string serialize_match_log() const;
  [[nodiscard]] std::uint64_t matches() const { return log_.size(); }
  [[nodiscard]] std::uint64_t rebinds() const { return rebinds_; }
  [[nodiscard]] std::uint64_t holds() const { return holds_; }
  [[nodiscard]] std::uint64_t submissions() const { return submissions_; }
  /// Holds caused by a full destination SE (lease rejections) -- the
  /// disk-full class converted into match-time waits.
  [[nodiscard]] std::uint64_t storage_holds() const {
    return storage_holds_;
  }
  /// Gangs placed (whole or split) and the subset that had to split.
  [[nodiscard]] std::uint64_t gang_matches() const { return gang_matches_; }
  [[nodiscard]] std::uint64_t gang_splits() const { return gang_splits_; }
  /// Matches decided against a frozen last-known-good view while the
  /// GIIS was down (the degraded-mode output of stale_view_max).
  [[nodiscard]] std::uint64_t stale_matches() const { return stale_matches_; }
  /// True while matching runs against the frozen stale view.
  [[nodiscard]] bool view_stale() const { return view_stale_; }
  /// True while the GIIS outage has outlived the staleness bound: the
  /// broker is deferring (holding) rather than matching.
  [[nodiscard]] bool view_outage() const { return view_outage_; }
  /// Rank passes (one candidate-ordering each: per-job matches, choose
  /// calls, gang matches).
  [[nodiscard]] std::uint64_t match_cycles() const { return match_cycles_; }
  /// Policy-score evaluations: every candidate is scored fresh on every
  /// rank pass.
  [[nodiscard]] std::uint64_t rank_evals() const { return rank_evals_; }
  /// Always 0: the broker keeps no rank cache.  Kept so the campaign
  /// benchmark's broker.rank_cache_hit_ratio stays defined.
  [[nodiscard]] std::uint64_t rank_cache_hits() const { return 0; }
  [[nodiscard]] int inflight(const std::string& site) const;
  [[nodiscard]] int inflight(core::SiteId site) const {
    return inflight_.get(site, 0);
  }
  /// Gang-scoped lease ids still held (model-checker introspection: the
  /// gang invariant cross-checks these against the ledger's active set).
  [[nodiscard]] std::vector<placement::LeaseId> live_gang_leases() const;

  /// TEST-ONLY (mc seeded-bug scenario): re-introduce a historical bug
  /// where retry_held "cleans up" the job's stage-out lease before
  /// re-matching.  Harmless in the canonical event order -- a held job
  /// holds no lease -- but when a completion kick re-matches the job
  /// first within the same tick, the retry releases the lease the job's
  /// in-flight submission depends on.  The mc seeded-bug test proves the
  /// explorer finds this while a single-ordering run cannot.
  void test_seed_stale_hold_release() { mc_seed_stale_hold_release_ = true; }

 private:
  /// Shared state of one submitted gang.  Members hold a reference; the
  /// last member to resolve releases the gang lease (exactly once --
  /// release() clears `lease`, so failure and success paths all drain
  /// through the same guard).
  struct GangState {
    std::string id;
    placement::LeaseId lease = 0;  ///< gang-scoped intermediates lease
    int outstanding = 0;           ///< members not yet resolved
  };

  struct Pending {
    JobSpec spec;
    gram::GramJob job;
    BrokeredCallback done;
    Time created;
    int rebinds = 0;
    int holds = 0;
    std::map<std::string, Time> excluded_until;  ///< per-job cool-off
    std::string bound_site;
    core::SiteId bound_id;  ///< interned bound_site (in-flight bookkeeping)
    gram::GramResult last;  ///< last transient failure, for exhaustion
    placement::LeaseId lease = 0;  ///< active stage-out lease (0 = none)
    /// SE the active lease resolved to (chain head unless the ledger
    /// fell through); empty when unleased.
    std::string resolved_se;
    /// The last defer was a full destination SE, not gatekeeper
    /// saturation: max-hold expiry then reports kDiskFull.
    bool storage_blocked = false;
    /// Gang membership (null = ordinary per-job submission).
    std::shared_ptr<GangState> gang;
    /// Site the gang placement assigned: the first match is pinned here
    /// when the site is still admissible; later re-matches rank freely.
    std::string gang_site;
    /// Interned membership set of spec.candidates, built on the first
    /// match attempt: the per-view-site `std::find` over the name list
    /// becomes an O(1) bitset test.
    core::IdBitset candidate_bits;
    std::size_t candidate_distinct = 0;  ///< distinct candidate names
    bool bits_built = false;
  };

  /// Per-pass context computed once per candidate ordering (one
  /// try_match / choose call): the hoisted chain-headroom factor
  /// (site-independent, so identical for every candidate) and the
  /// interned source-affinity site.
  struct RankPass {
    const std::vector<SiteView>* view = nullptr;  ///< refreshed, name-sorted
    double chain = 1.0;
    core::SiteId source;
  };

  void refresh_view(Time now);
  /// Admissible = eligible ∩ not cooled-off ∩ not throttled.
  [[nodiscard]] std::vector<const SiteView*> admissible(
      Pending& p, Time now, bool* any_deferred);
  [[nodiscard]] const SiteView* rank_and_pick(
      const JobSpec& spec, const std::vector<const SiteView*>& sites,
      Time now, const RankPass& pass, double* chosen_score);
  /// Open a candidate ordering: refreshes the view, hoists
  /// chain_headroom, and counts a match cycle.
  [[nodiscard]] RankPass begin_pass(const JobSpec& spec, Time now);
  /// Policy score net of the broker's own in-flight bindings; counts a
  /// rank evaluation.
  [[nodiscard]] double policy_term(const JobSpec& spec, const SiteView& site,
                                   Time now);
  void try_match(const std::shared_ptr<Pending>& p);
  void on_result(const std::shared_ptr<Pending>& p,
                 const gram::GramResult& r);
  void hold(const std::shared_ptr<Pending>& p);
  /// Per-hold jittered re-check: no-op when a kick already drained the
  /// job from the waiting queue.
  void retry_held(const std::shared_ptr<Pending>& p);
  void kick_waiting();
  void record_match(const Pending& p, const SiteView& site, double score,
                    std::size_t pool_size);
  /// Fail a job the broker gives up on before a submission resolves it
  /// (hold budget spent, no eligible site): `gram` (the last transient
  /// failure, or a fresh result) restamped with `status` and the time
  /// the job spent in the broker.
  void give_up(const std::shared_ptr<Pending>& p, gram::GramResult gram,
               gram::GramStatus status, bool matched);
  /// Finish a bound job with its submission's result.
  void resolve(const std::shared_ptr<Pending>& p, const gram::GramResult& r);
  void finish(const std::shared_ptr<Pending>& p, BrokeredResult result);
  /// Acquire (or re-acquire) the stage-out lease for a spec carrying a
  /// placement intent and thread it into the GramJob.  False = the
  /// destination SE is full; the caller must defer the match.
  [[nodiscard]] bool ensure_lease(Pending& p, Time now);
  void drop_lease(Pending& p, bool consumed);
  /// Member resolved: the last one out releases the gang lease.
  void leave_gang(Pending& p);
  [[nodiscard]] double predicted_load(const SiteView& site) const;
  /// `app_key`: mds::app_attribute(spec.required_app), built once per
  /// query by the caller.
  [[nodiscard]] bool meets_requirements(const JobSpec& spec,
                                        std::string_view app_key,
                                        const SiteView& site) const;
  /// Policy score adjusted for the broker's own in-flight bindings
  /// (free CPUs the view has not seen consumed yet), the placement
  /// factors, and the source-site data affinity.
  [[nodiscard]] double effective_score(const JobSpec& spec,
                                       const SiteView& site, Time now,
                                       const RankPass& pass);
  /// Stage-out headroom of the spec's archive failover chain: the best
  /// drain-credited score among admissible (non-quarantined) chain SEs
  /// present in the view.  Constant across execution-site candidates,
  /// so it scales the whole rank surface (a starved chain holds the
  /// job) without reordering sites.  1.0 when the spec archives
  /// nothing or no chain SE is in the view.
  [[nodiscard]] double chain_headroom(const JobSpec& spec) const;
  /// Members the site can take right now: free slots net of in-flight,
  /// throttle headroom, and load-ceiling headroom in burst units (one
  /// gram::Gatekeeper::kBurstWeight per member).
  [[nodiscard]] int gang_capacity(const SiteView& site) const;

  sim::Simulation& sim_;
  BrokerConfig cfg_;
  std::unique_ptr<RankPolicy> policy_;
  const mds::Giis& giis_;
  const monitoring::MonalisaRepository* monitor_;
  GatekeeperDirectory& gatekeepers_;
  gram::CondorG& condor_g_;
  health::SiteHealthMonitor* health_ = nullptr;
  placement::PlacementLedger* ledger_ = nullptr;
  util::Rng rng_;

  /// Site interner (shared with core::Grid3 when attached there).
  std::shared_ptr<core::IdRegistry> ids_;

  std::vector<SiteView> view_;
  /// Interned id -> index into the name-sorted view_ (-1 = absent).
  core::IdMap<core::SiteId, std::int32_t> view_index_;
  /// Interned id -> the site's MonALISA gatekeeper-load key (invalid
  /// until the site's agent first reports).
  core::IdMap<core::SiteId, monitoring::MetricId> gatekeeper_load_ids_;
  Time view_refreshed_;
  bool view_valid_ = false;
  /// The current view_ is a frozen last-known-good copy served while
  /// the GIIS answers nothing (within stale_view_max of its refresh).
  bool view_stale_ = false;
  /// The GIIS outage outlived stale_view_max (or struck before any view
  /// existed): admissibility defers everything instead of rejecting.
  bool view_outage_ = false;

  core::IdMap<core::SiteId, int> inflight_;
  /// Per-site sum of in-flight staging factors (predicted-load input).
  core::IdMap<core::SiteId, double> inflight_staging_;
  /// Scratch bitset for choose() candidate lists.
  core::IdBitset scratch_bits_;
  std::deque<std::shared_ptr<Pending>> waiting_;
  bool kick_scheduled_ = false;
  bool mc_seed_stale_hold_release_ = false;
  /// Monotone hold counter feeding the deterministic retry jitter.
  std::uint64_t hold_seq_ = 0;
  /// Live leased gangs by primary site, so a quarantine trip can return
  /// their leases (weak: resolved gangs just drop out).
  std::vector<std::pair<std::string, std::weak_ptr<GangState>>> live_gangs_;

  std::vector<MatchDecision> log_;
  std::uint64_t rebinds_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t storage_holds_ = 0;
  std::uint64_t submissions_ = 0;
  std::uint64_t gang_matches_ = 0;
  std::uint64_t gang_splits_ = 0;
  std::uint64_t stale_matches_ = 0;
  std::uint64_t match_cycles_ = 0;
  std::uint64_t rank_evals_ = 0;
};

}  // namespace grid3::broker
