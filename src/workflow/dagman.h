// DAGMan: dependency-driven execution of a concrete DAG (paper ref [41]).
//
// Ready nodes launch as soon as their parents succeed: compute nodes go
// through Condor-G to the bound site's gatekeeper, data nodes run as
// GridFTP third-party transfers, register nodes write RLS entries.
// Failed nodes retry with a delay; a permanently failed node skips its
// descendants, and the run report carries the rescue list (unfinished
// node indices) so a caller can resubmit -- DAGMan's rescue-DAG
// behaviour.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gram/condor_g.h"
#include "gram/gatekeeper.h"
#include "gridftp/gridftp.h"
#include "rls/rls.h"
#include "sim/simulation.h"
#include "srm/disk.h"
#include "workflow/dag.h"

namespace grid3::broker {
class ResourceBroker;
struct BrokeredResult;
}  // namespace grid3::broker

namespace grid3::health {
class SiteHealthMonitor;
}  // namespace grid3::health

namespace grid3::workflow {

/// Resolves site names to their service endpoints; implemented by the
/// Grid3 fabric in core.
class SiteServices {
 public:
  virtual ~SiteServices() = default;
  [[nodiscard]] virtual gram::Gatekeeper* gatekeeper(
      const std::string& site) = 0;
  [[nodiscard]] virtual gridftp::GridFtpServer* ftp(
      const std::string& site) = 0;
  [[nodiscard]] virtual srm::DiskVolume* volume(const std::string& site) = 0;
};

struct NodeResult {
  std::size_t index = 0;
  NodeType type = NodeType::kCompute;
  std::string site;
  std::string source_site;  ///< data nodes: where the bytes came from
  Bytes bytes;              ///< data nodes: volume moved
  bool ok = false;
  int attempts = 0;
  Time submitted;
  Time started;   ///< batch start for compute nodes (== submitted otherwise)
  Time finished;
  gram::GramStatus gram_status = gram::GramStatus::kCompleted;
  std::string gram_contact;  ///< execution-side jobmanager id
  gridftp::TransferStatus transfer_status = gridftp::TransferStatus::kCompleted;
  /// Failure attribution per the section 6.1 taxonomy.
  bool site_problem = false;
  std::string failure_class;
};

struct DagRunStats {
  bool success = false;
  std::size_t nodes_total = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;  ///< descendants of failed nodes
  int retries = 0;
  Time started;
  Time finished;
  std::vector<NodeResult> node_results;
  std::vector<std::size_t> rescue;  ///< indices needing a rescue run
};

class DagMan {
 public:
  using DoneFn = std::function<void(const DagRunStats&)>;
  using NodeObserver = std::function<void(const NodeResult&)>;

  DagMan(sim::Simulation& sim, gram::CondorG& condor_g,
         gridftp::GridFtpClient& ftp, rls::ReplicaLocationService* rls,
         SiteServices& services);

  /// Execute `dag` under `proxy`.  `done` fires exactly once; `on_node`
  /// (optional) fires per terminal node attempt for accounting.
  void run(ConcreteDag dag, vo::VomsProxy proxy, DoneFn done,
           NodeObserver on_node = {});

  [[nodiscard]] std::uint64_t dags_run() const { return dags_run_; }

  /// Optional resource broker: compute nodes carrying a JobSpec are
  /// late-bound through it instead of submitted to their planned site.
  void set_broker(broker::ResourceBroker* broker) { broker_ = broker; }
  [[nodiscard]] broker::ResourceBroker* broker() const { return broker_; }

  /// Optional site-health monitor: DAGMan feeds it the outcomes the
  /// broker never sees (direct-submit compute nodes, GridFTP transfer
  /// nodes) and refunds retry budget for failures at sites the monitor
  /// has since quarantined.
  void set_health(health::SiteHealthMonitor* monitor) { health_ = monitor; }
  [[nodiscard]] health::SiteHealthMonitor* health() const { return health_; }

  /// Build the rescue DAG for a failed run: the sub-DAG of nodes that
  /// did not complete, with edges restricted to survivors -- resubmit it
  /// to continue where the run stopped (completed work is not redone).
  [[nodiscard]] static ConcreteDag rescue_dag(const ConcreteDag& dag,
                                              const DagRunStats& stats);

  /// Rescue DAG with each node's late-binding candidate set refreshed
  /// against the broker's live GIIS view: sites that left the view since
  /// planning drop out, newly arrived sites join (name-sorted, so the
  /// refresh is deterministic).  Identical to the static rescue_dag when
  /// no broker is attached.
  [[nodiscard]] ConcreteDag rescue_dag_refreshed(const ConcreteDag& dag,
                                                 const DagRunStats& stats,
                                                 Time now) const;

 private:
  enum class NodeState { kPending, kRunning, kDone, kFailed, kSkipped };

  struct Run {
    ConcreteDag dag;
    vo::VomsProxy proxy;
    DoneFn done;
    NodeObserver on_node;
    std::vector<NodeState> states;
    std::vector<int> attempts;
    /// Adjacency built once per run (ConcreteDag::parents/children scan
    /// the whole edge list per call -- O(V*E) across a run).
    std::vector<std::vector<std::size_t>> parents;
    std::vector<std::vector<std::size_t>> children;
    DagRunStats stats;
    std::size_t outstanding = 0;
    bool finished = false;
  };

  void launch_ready(const std::shared_ptr<Run>& run);
  void start_node(const std::shared_ptr<Run>& run, std::size_t idx);
  /// Submit the ready members of one gang as a unit through
  /// ResourceBroker::submit_gang (a partially ready gang -- e.g. a
  /// rescue of a half-finished level -- submits whatever is ready; the
  /// broker sizes the placement from the members actually given).
  void start_gang(const std::shared_ptr<Run>& run,
                  std::vector<std::size_t> members);
  /// True when the node's compute job goes through the broker (late
  /// binding) rather than straight to its planned site's gatekeeper.
  [[nodiscard]] bool brokered(const ConcreteNode& node) const;
  /// GRAM job for a compute node: stage-in from the node's source, and
  /// for a brokered node the stage-out of the spec's placement intent.
  [[nodiscard]] gram::GramJob compute_job(const Run& run,
                                          const ConcreteNode& node);
  /// A compute node's result from its GRAM result, run at `site`.
  [[nodiscard]] NodeResult compute_result(const Run& run, std::size_t idx,
                                          const std::string& site,
                                          const gram::GramResult& g) const;
  /// A node that failed before any submission (its site has no
  /// gatekeeper or GridFTP endpoint): a site problem, ended at once.
  [[nodiscard]] NodeResult unsubmitted(const Run& run, std::size_t idx,
                                       const char* failure_class) const;
  /// Register `lfns` at `se` in RLS, `total` bytes split evenly across
  /// them (a register node's outputs, or a brokered node's archived
  /// ones).
  void register_outputs(const std::string& se,
                        const std::vector<std::string>& lfns, Bytes total);
  /// Shared terminal handler for brokered compute nodes (per-job and
  /// gang paths): records the result, feeds the *actual* completion
  /// site back into children whose staging follows this node's output
  /// -- for gang members placed on a split site this is the member's
  /// own site, never the gang's primary -- and executes the
  /// registration intent.
  void brokered_done(const std::shared_ptr<Run>& run, std::size_t idx,
                     const broker::BrokeredResult& br);
  void node_done(const std::shared_ptr<Run>& run, std::size_t idx,
                 NodeResult result);
  void skip_descendants(const std::shared_ptr<Run>& run, std::size_t idx);
  void maybe_finish(const std::shared_ptr<Run>& run);

  sim::Simulation& sim_;
  gram::CondorG& condor_g_;
  gridftp::GridFtpClient& ftp_;
  rls::ReplicaLocationService* rls_;
  SiteServices& services_;
  broker::ResourceBroker* broker_ = nullptr;
  health::SiteHealthMonitor* health_ = nullptr;
  std::uint64_t dags_run_ = 0;
};

}  // namespace grid3::workflow
