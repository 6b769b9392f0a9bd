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

namespace grid3::workflow {

struct PlannerConfig {
  std::string vo;
  std::string archive_site;  ///< Tier1 SE for final outputs (BNL, FNAL)
  /// Ordered archive failover chain behind `archive_site`: brokered
  /// plans thread it into JobSpec::stage_out_fallbacks, and when the
  /// primary refuses the stage-out lease, placement falls through these
  /// in order.  Non-brokered plans cannot fall through and archive to
  /// `archive_site`.
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

class PegasusPlanner {
 public:
  PegasusPlanner(const mds::Giis& giis, const rls::ReplicaLocationService& rls)
      : giis_{giis}, rls_{rls} {}

  /// Optional resource broker (null = the static favorite-sites path).
  /// With a broker attached, compute nodes carry a JobSpec for late
  /// binding, the provisional placement comes from the broker's ranked
  /// view, and cross-site parent->child data folds into jobmanager
  /// staging instead of pre-planned stage-in nodes (mover destinations
  /// cannot be known before dispatch-time matching).  The planner does
  /// not judge quarantine: candidate sets keep quarantined sites, which
  /// the broker skips for the provisional placement and defers at match
  /// time until their breakers re-admit them.
  void set_broker(broker::ResourceBroker* broker) { broker_ = broker; }

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

  const mds::Giis& giis_;
  const rls::ReplicaLocationService& rls_;
  broker::ResourceBroker* broker_ = nullptr;
  mutable PlanError last_error_ = PlanError::kEmptyDag;
};

}  // namespace grid3::workflow
