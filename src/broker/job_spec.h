// Broker-visible description of one grid job (the ClassAd-equivalent).
//
// Grid2003 ran with no grid-level scheduler: VOs pinned "favorite sites"
// in their planner configurations (section 8 lists the resulting load
// imbalance among the lessons learned).  The broker subsystem models the
// EU-DataGrid-style Resource Broker the VOs were migrating toward; a
// JobSpec carries exactly the information a submitter's JDL exposed:
// eligibility requirements, data dependencies, and ranking hints.  It is
// deliberately free of MDS/monitoring types so the workflow layer can
// embed it in concrete-DAG nodes without widening its include surface.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace grid3::rls {
class ReplicaLocationService;
}  // namespace grid3::rls

namespace grid3::broker {

struct JobSpec {
  std::string vo;
  std::string app;           ///< accounting label (application name)
  std::string required_app;  ///< MDS installed-application requirement
  Time runtime;
  double walltime_slack = 1.5;
  int min_free_cpus = 1;
  bool need_outbound = false;
  /// Static per-site weights: the paper's status-quo "favorite sites".
  std::map<std::string, double> site_preference;
  /// Input LFNs, for replica-locality ranking.
  std::vector<std::string> data_inputs;
  /// VO replica catalog used to resolve `data_inputs` (may be null).
  const rls::ReplicaLocationService* rls = nullptr;
  /// Estimated stage-in volume (drives the gatekeeper staging factor).
  Bytes stage_in;
  /// Working-directory footprint at the execution site (lets the broker
  /// rank away from sites whose disks are nearly full).
  Bytes scratch;
  /// Stage-out placement intent: archive `stage_out` bytes to this SE
  /// after success, then register `output_lfns` there.  Empty site = no
  /// archived outputs.  With a placement ledger attached, the broker
  /// acquires a stage-out lease for the intent before binding the job.
  std::string stage_out_site;
  Bytes stage_out;
  std::vector<std::string> output_lfns;
  /// Ordered archive failover chain behind `stage_out_site`: when the
  /// primary SE refuses the stage-out lease (full, quarantined, or
  /// unreachable), the placement ledger falls through these in order
  /// and the job archives to whichever SE actually granted space.
  std::vector<std::string> stage_out_fallbacks;
  /// Plan-time eligible sites.  Non-empty = the broker late-binds within
  /// this set; empty = the broker computes eligibility from its own view.
  /// Quarantined sites stay in the set: the broker defers them on every
  /// match attempt until their breakers re-admit them.
  std::vector<std::string> candidates;
  /// Where this job's staged input currently sits (the site holding the
  /// producing sibling's output, or the replica chosen at plan time).
  /// The broker boosts this site when ranking so consumers chase their
  /// data instead of pricing a WAN transfer; DAGMan rewrites it to the
  /// producer's *actual* completion site once late binding resolves --
  /// including for gang members placed on a split site, whose real site
  /// may differ from the gang's primary.  Empty = no affinity.
  std::string source_site;
  /// Gang matching (see ResourceBroker::match_gang): non-empty when this
  /// job is one member of a DAG level that should be co-located so its
  /// intermediate products stay on the execution site's shared disk.
  /// All members of one level carry the same id; DAGMan submits a ready
  /// gang as one unit instead of job-by-job.
  std::string gang_id;
  /// Aggregate intermediate-product bytes the whole level parks on the
  /// execution site's disk for its consumers (each member carries the
  /// level total).  Sized into the gang-scoped placement lease.
  Bytes gang_intermediates;
};

}  // namespace grid3::broker
