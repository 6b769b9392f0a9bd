// Pegasus-style planner: abstract DAG -> concrete DAG (paper refs
// [33-34]).
//
// Responsibilities reproduced from the real planner:
//  * virtual-data reuse: derivations whose outputs already exist in RLS
//    are pruned from the plan;
//  * site selection: only sites advertising the required application in
//    MDS, enough free CPUs, a compatible walltime limit, and (when the
//    application demands it) outbound connectivity are eligible --
//    exactly the four site-selection drivers of section 6.4;
//  * data movement: external inputs are folded into the compute node's
//    jobmanager staging; cross-site parent->child data gets stage-in
//    nodes; final outputs get stage-out + RLS-register nodes to the VO
//    archive.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mds/giis.h"
#include "rls/rls.h"
#include "util/rng.h"
#include "workflow/dag.h"

namespace grid3::broker {
class ResourceBroker;
}  // namespace grid3::broker

namespace grid3::health {
class SiteHealthMonitor;
}  // namespace grid3::health

namespace grid3::workflow {

struct PlannerConfig {
  std::string vo;
  std::string archive_site;  ///< Tier1 SE for final outputs (BNL, FNAL)
  /// Ordered archive failover chain behind `archive_site`: when the
  /// primary refuses the stage-out lease, placement falls through these
  /// in order (brokered plans thread them into
  /// JobSpec::stage_out_fallbacks; non-brokered plans archive to the
  /// first health-admissible chain SE).
  std::vector<std::string> archive_fallbacks;
  /// Requested walltime = runtime * slack (queue padding).
  double walltime_slack = 1.5;
  int min_free_cpus = 1;
  bool need_outbound = false;
  /// Multiplicative per-site preference weights ("favorite" resources,
  /// section 6.4); unlisted sites weigh 1.
  std::map<std::string, double> site_preference;
  /// Probability a child job is co-located with its first parent.
  double locality = 0.7;
  /// Skip derivations whose outputs are already registered (virtual data).
  bool reuse_existing = true;
  /// Archive every output, or only DAG-final ones.
  bool archive_all = false;
  /// Gang matching (brokered plans only): tag sibling compute nodes of
  /// one abstract-DAG level -- same depth, feeding a common child -- with
  /// a shared gang_id so DAGMan submits the level as one unit and the
  /// broker co-locates it (ResourceBroker::match_gang).  Off = every
  /// node late-binds individually, scattering levels across sites.
  bool gang_matching = true;
};

/// Why a plan failed.
enum class PlanError { kNoEligibleSite, kEmptyDag };

/// Take the sites `health` quarantines out of `candidates` and return
/// them (the JobSpec::deferred_candidates of a brokered node), both in
/// their original order.  When every candidate is quarantined nothing
/// moves: the broker's defer-not-disqualify hold beats failing the node
/// outright.  A null monitor quarantines nothing.  The planner and
/// DagMan::rescue_dag_refreshed split the same way.
[[nodiscard]] std::vector<std::string> split_quarantined(
    const health::SiteHealthMonitor* health,
    std::vector<std::string>& candidates);

class PegasusPlanner {
 public:
  PegasusPlanner(const mds::Giis& giis, const rls::ReplicaLocationService& rls)
      : giis_{giis}, rls_{rls} {}

  /// Optional resource broker (null = the static favorite-sites path).
  /// With a broker attached, compute nodes carry a JobSpec for late
  /// binding, the provisional placement comes from the broker's ranked
  /// view, and cross-site parent->child data folds into jobmanager
  /// staging instead of pre-planned stage-in nodes (mover destinations
  /// cannot be known before dispatch-time matching).
  void set_broker(broker::ResourceBroker* broker) { broker_ = broker; }
  [[nodiscard]] broker::ResourceBroker* broker() const { return broker_; }

  /// Optional site-health monitor (core::Grid3::attach_health wires it).
  /// With a monitor attached the plan is health-aware: quarantined sites
  /// drop out of every node's candidate set at plan time (fixed-site
  /// nodes stop burning DAGMan retries on condemned sites) and the
  /// archive chain is reordered healthy-first.  Brokered plans keep the
  /// quarantined sites as JobSpec::deferred_candidates, so a quarantine
  /// that lifts before launch re-admits them deterministically at match
  /// time; quarantined archive SEs are demoted to the chain's tail, not
  /// dropped, for the same reason.  The derivation stays deterministic:
  /// it depends only on the breaker states at `now`, never on an RNG
  /// draw.
  void set_health(const health::SiteHealthMonitor* health) {
    health_ = health;
  }
  [[nodiscard]] const health::SiteHealthMonitor* health() const {
    return health_;
  }

  /// Sites currently eligible to run a job needing `app`.
  [[nodiscard]] std::vector<std::string> eligible_sites(
      const std::string& required_app, Time max_runtime,
      const PlannerConfig& cfg, Time now) const;

  [[nodiscard]] std::optional<ConcreteDag> plan(const AbstractDag& dag,
                                                const PlannerConfig& cfg,
                                                util::Rng& rng,
                                                Time now) const;

  [[nodiscard]] PlanError last_error() const { return last_error_; }

 private:
  [[nodiscard]] std::string choose_site(
      const std::vector<std::string>& candidates, const PlannerConfig& cfg,
      util::Rng& rng) const;

  /// True when `site` is not quarantined (or no monitor is attached).
  [[nodiscard]] bool site_admissible(const std::string& site) const;
  /// The archive chain ([archive_site] + archive_fallbacks) reordered
  /// healthy-first with relative order preserved in both groups.
  [[nodiscard]] std::vector<std::string> archive_chain(
      const PlannerConfig& cfg) const;

  const mds::Giis& giis_;
  const rls::ReplicaLocationService& rls_;
  broker::ResourceBroker* broker_ = nullptr;
  const health::SiteHealthMonitor* health_ = nullptr;
  mutable PlanError last_error_ = PlanError::kEmptyDag;
};

}  // namespace grid3::workflow
