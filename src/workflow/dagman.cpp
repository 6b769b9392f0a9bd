#include "workflow/dagman.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>

#include "broker/broker.h"
#include "core/ids.h"
#include "health/health.h"
#include "util/retry.h"
#include "workflow/planner.h"

namespace grid3::workflow {

namespace {

/// A failed node retries twice, ten minutes apart (DAGMan's RETRY).
constexpr util::RetryPolicy kNodeRetry{.base = Time::minutes(10),
                                       .max_retries = 2};

}  // namespace

DagMan::DagMan(sim::Simulation& sim, gram::CondorG& condor_g,
               gridftp::GridFtpClient& ftp, rls::ReplicaLocationService* rls,
               SiteServices& services)
    : sim_{sim},
      condor_g_{condor_g},
      ftp_{ftp},
      rls_{rls},
      services_{services} {}

void DagMan::run(ConcreteDag dag, vo::VomsProxy proxy, DoneFn done,
                 NodeObserver on_node) {
  ++dags_run_;
  auto run = std::make_shared<Run>();
  run->dag = std::move(dag);
  run->proxy = std::move(proxy);
  run->done = std::move(done);
  run->on_node = std::move(on_node);
  run->states.assign(run->dag.nodes.size(), NodeState::kPending);
  run->attempts.assign(run->dag.nodes.size(), 0);
  run->parents.resize(run->dag.nodes.size());
  run->children.resize(run->dag.nodes.size());
  for (const auto& [p, c] : run->dag.edges) {
    run->parents[c].push_back(p);
    run->children[p].push_back(c);
  }
  run->stats.nodes_total = run->dag.nodes.size();
  run->stats.started = sim_.now();
  run->stats.node_results.resize(run->dag.nodes.size());
  launch_ready(run);
  maybe_finish(run);
}

ConcreteDag DagMan::rescue_dag(const ConcreteDag& dag,
                               const DagRunStats& stats) {
  ConcreteDag rescue;
  // Map old index -> new index for unfinished nodes.
  std::vector<std::size_t> remap(dag.nodes.size(),
                                 static_cast<std::size_t>(-1));
  for (std::size_t idx : stats.rescue) {
    if (idx >= dag.nodes.size()) continue;
    remap[idx] = rescue.nodes.size();
    rescue.nodes.push_back(dag.nodes[idx]);
  }
  for (const auto& [parent, child] : dag.edges) {
    // Edges from completed parents vanish (the dependency is satisfied);
    // edges between two unfinished nodes carry over.
    if (remap[parent] == static_cast<std::size_t>(-1)) continue;
    if (remap[child] == static_cast<std::size_t>(-1)) continue;
    rescue.edges.emplace_back(remap[parent], remap[child]);
  }
  return rescue;
}

ConcreteDag DagMan::rescue_dag_refreshed(const ConcreteDag& dag,
                                         const DagRunStats& stats,
                                         Time now) const {
  ConcreteDag rescue = rescue_dag(dag, stats);
  if (broker_ == nullptr) return rescue;
  // Sites the live GIIS view still advertises, for pruning dead SEs out
  // of the archive chains alongside the candidate refresh.  Membership
  // over interned ids: an SE the registry never saw cannot be in the
  // view, so find() (not intern) suffices on the probe side.
  core::IdBitset live;
  for (const broker::SiteView& v : broker_->view(now)) live.set(v.id);
  const core::Interner<core::SiteId>& site_ids = broker_->id_registry()->sites;
  const health::SiteHealthMonitor* health = broker_->health();
  const auto se_alive = [&](const std::string& se) {
    const core::SiteId id = site_ids.find(se);
    return id.valid() && live.test(id) &&
           (health == nullptr || !health->quarantined(se));
  };
  for (ConcreteNode& node : rescue.nodes) {
    if (!node.broker_spec.has_value()) continue;
    broker::JobSpec& spec = *node.broker_spec;
    // Re-derive the eligible set from the broker's live view instead of
    // resubmitting against the plan-time snapshot -- quarantined sites
    // park in deferred_candidates exactly as at plan time.
    broker::JobSpec probe = spec;
    probe.candidates.clear();
    spec.candidates = broker_->eligible(probe, now);
    spec.deferred_candidates = split_quarantined(health, spec.candidates);
    // Refresh the SE preference chain too: a rescue that keeps a dead
    // or quarantined SE at the head would spend its first acquire hop
    // rediscovering what the view already knows.  Live SEs keep their
    // relative order at the head; dead ones sink to the tail (kept, in
    // case they return before this lease is ever acquired).
    if (!spec.stage_out_site.empty()) {
      std::vector<std::string> chain;
      chain.reserve(1 + spec.stage_out_fallbacks.size());
      chain.push_back(std::move(spec.stage_out_site));
      for (std::string& se : spec.stage_out_fallbacks) {
        chain.push_back(std::move(se));
      }
      std::stable_partition(chain.begin(), chain.end(), se_alive);
      spec.stage_out_site = std::move(chain.front());
      spec.stage_out_fallbacks.assign(
          std::make_move_iterator(chain.begin() + 1),
          std::make_move_iterator(chain.end()));
    }
  }
  return rescue;
}

void DagMan::launch_ready(const std::shared_ptr<Run>& run) {
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < run->dag.nodes.size(); ++i) {
    if (run->states[i] != NodeState::kPending) continue;
    bool ok = true;
    for (std::size_t p : run->parents[i]) {
      if (run->states[p] != NodeState::kDone) {
        ok = false;
        break;
      }
    }
    if (ok) ready.push_back(i);
  }

  // Gang grouping: ready brokered compute nodes sharing a gang_id go to
  // the broker as one unit so the whole level can be co-located.  A
  // gang with a single ready member (staggered readiness, rescue of a
  // partly finished level) takes the ordinary per-job path.
  if (broker_ != nullptr) {
    std::map<std::string, std::vector<std::size_t>> gangs;
    for (std::size_t i : ready) {
      const ConcreteNode& n = run->dag.nodes[i];
      if (n.type == NodeType::kCompute && n.broker_spec.has_value() &&
          !n.broker_spec->gang_id.empty()) {
        gangs[n.broker_spec->gang_id].push_back(i);
      }
    }
    for (auto& [id, members] : gangs) {
      if (members.size() < 2) continue;
      // start_gang marks members running; the loop below skips them.
      start_gang(run, members);
    }
  }

  for (std::size_t i : ready) {
    // Re-check: a gang launch (or a synchronous completion re-entering
    // launch_ready) may have started this node already.
    if (run->states[i] == NodeState::kPending) start_node(run, i);
  }
}

bool DagMan::brokered(const ConcreteNode& node) const {
  return broker_ != nullptr && node.broker_spec.has_value();
}

gram::GramJob DagMan::compute_job(const Run& run,
                                  const ConcreteNode& node) {
  gram::GramJob job;
  job.proxy = run.proxy;
  job.request.vo = run.proxy.vo;
  job.request.requested_walltime = node.requested_walltime;
  job.request.actual_runtime = node.runtime;
  job.request.priority = node.priority;
  job.scratch = node.scratch;
  if (node.bytes > Bytes::zero() && !node.source_site.empty()) {
    job.stage_in = node.bytes;
    job.stage_in_source = services_.ftp(node.source_site);
  }
  if (!brokered(node)) return job;
  // Placement intent: the gatekeeper archives the output itself (no
  // planned stage-out node), accounted against the archive SE's volume
  // -- or inside the lease's SRM reservation once the broker acquires
  // one and threads it into this job.
  const broker::JobSpec& spec = *node.broker_spec;
  if (spec.stage_out > Bytes::zero() && !spec.stage_out_site.empty()) {
    job.stage_out = spec.stage_out;
    job.stage_out_dest = services_.ftp(spec.stage_out_site);
    job.stage_out_volume = services_.volume(spec.stage_out_site);
  }
  return job;
}

NodeResult DagMan::compute_result(const Run& run, std::size_t idx,
                                  const std::string& site,
                                  const gram::GramResult& g) const {
  const ConcreteNode& n = run.dag.nodes[idx];
  NodeResult r;
  r.index = idx;
  r.type = n.type;
  r.site = site;
  r.source_site = n.source_site;
  r.bytes = n.bytes;  // jobmanager staging volume
  r.ok = g.ok();
  r.attempts = run.attempts[idx];
  r.submitted = g.submitted;
  r.started = g.ok() ? g.outcome.started : g.submitted;
  r.finished = g.finished;
  r.gram_status = g.status;
  r.gram_contact = g.gram_contact;
  if (!g.ok()) {
    r.site_problem = gram::is_site_problem(g.status);
    r.failure_class = gram::to_string(g.status);
  }
  return r;
}

NodeResult DagMan::unsubmitted(const Run& run, std::size_t idx,
                               const char* failure_class) const {
  const ConcreteNode& n = run.dag.nodes[idx];
  NodeResult r;
  r.index = idx;
  r.type = n.type;
  r.site = n.site;
  r.ok = false;
  r.attempts = run.attempts[idx];
  r.submitted = r.started = r.finished = sim_.now();
  r.site_problem = true;
  r.failure_class = failure_class;
  return r;
}

void DagMan::register_outputs(const std::string& se,
                              const std::vector<std::string>& lfns,
                              Bytes total) {
  if (rls_ == nullptr || lfns.empty()) return;
  // The node's volume splits evenly across its files.
  const Bytes per_file =
      Bytes::of(total.count() / static_cast<std::int64_t>(lfns.size()));
  for (const std::string& lfn : lfns) {
    rls_->register_replica(
        se, lfn, {"gsiftp://" + se + "/" + lfn, per_file, sim_.now()},
        sim_.now());
  }
}

void DagMan::start_gang(const std::shared_ptr<Run>& run,
                        std::vector<std::size_t> members) {
  broker::GangSpec gang;
  const broker::JobSpec& first = *run->dag.nodes[members.front()].broker_spec;
  gang.gang_id = first.gang_id;
  gang.intermediates = first.gang_intermediates;
  std::vector<gram::GramJob> jobs;
  gang.members.reserve(members.size());
  jobs.reserve(members.size());
  for (std::size_t idx : members) {
    run->states[idx] = NodeState::kRunning;
    ++run->outstanding;
    ++run->attempts[idx];
    const ConcreteNode& node = run->dag.nodes[idx];
    gang.members.push_back(*node.broker_spec);
    jobs.push_back(compute_job(*run, node));
  }
  broker_->submit_gang(
      std::move(gang), std::move(jobs),
      [this, run, indices = std::move(members)](
          std::size_t m, const broker::BrokeredResult& br) {
        brokered_done(run, indices[m], br);
      });
}

void DagMan::brokered_done(const std::shared_ptr<Run>& run, std::size_t idx,
                           const broker::BrokeredResult& br) {
  const ConcreteNode& n = run->dag.nodes[idx];
  // An unmatched job never carries a completed GRAM result, so r.ok is
  // br.ok().
  NodeResult r =
      compute_result(*run, idx, br.site.empty() ? n.site : br.site, br.gram);
  if (!br.matched) {
    // Never bound: the broker's kNoEligibleSite analogue.
    r.site_problem = false;
    r.failure_class = "no-eligible-site";
  }
  if (br.ok()) {
    // Completion-site feedback: late binding may have moved the job off
    // its provisional site.  Record where it *really* ran -- for a gang
    // member on a split placement that is the member's own site, which
    // can differ from the gang's primary -- and repoint children that
    // stage this node's output, so their stage-in source, transfer
    // pricing, and broker data affinity all follow the data.
    ConcreteNode& executed = run->dag.nodes[idx];
    if (!br.site.empty()) {
      executed.site = br.site;
      for (std::size_t c : run->children[idx]) {
        ConcreteNode& child = run->dag.nodes[c];
        if (child.source_parent == idx) {
          child.source_site = br.site;
          if (child.broker_spec.has_value()) {
            child.broker_spec->source_site = br.site;
          }
        } else if (child.type == NodeType::kCompute &&
                   child.broker_spec.has_value()) {
          // Provisionally co-located edge: no staging was folded, but
          // late binding decides the child's site anyway.  Hand the
          // broker a pure affinity hint (no stage-in bytes) so the
          // consumer of a gang's intermediates chases the site they
          // actually landed on instead of rediscovering it as a WAN
          // pull.
          child.broker_spec->source_site = br.site;
        }
      }
    }
    // Execute the registration intent: the gatekeeper just archived the
    // outputs at whichever SE the placement chain resolved to (the
    // broker reports it as archive_site when a lease was held), so the
    // replica entries must name that SE, not the plan's primary.
    const broker::JobSpec& spec = *executed.broker_spec;
    const std::string& archive_se =
        br.archive_site.empty() ? spec.stage_out_site : br.archive_site;
    if (!archive_se.empty() && spec.stage_out > Bytes::zero() &&
        services_.ftp(archive_se) != nullptr) {
      register_outputs(archive_se, spec.output_lfns, spec.stage_out);
    }
  }
  node_done(run, idx, std::move(r));
}

void DagMan::start_node(const std::shared_ptr<Run>& run, std::size_t idx) {
  run->states[idx] = NodeState::kRunning;
  ++run->outstanding;
  ++run->attempts[idx];
  const ConcreteNode& node = run->dag.nodes[idx];

  switch (node.type) {
    case NodeType::kCompute: {
      if (brokered(node)) {
        broker_->submit(*node.broker_spec, compute_job(*run, node),
                        [this, run, idx](const broker::BrokeredResult& br) {
                          brokered_done(run, idx, br);
                        });
        return;
      }
      gram::Gatekeeper* gk = services_.gatekeeper(node.site);
      if (gk == nullptr) {
        NodeResult r = unsubmitted(*run, idx, "site-unknown");
        r.gram_status = gram::GramStatus::kGatekeeperDown;
        node_done(run, idx, std::move(r));
        return;
      }
      condor_g_.submit_to(*gk, compute_job(*run, node),
                          [this, run, idx](const gram::GramResult& res) {
                            const ConcreteNode& n = run->dag.nodes[idx];
                            // The broker never saw this job: score it
                            // here, a full disk against the execution
                            // site.
                            if (health_ != nullptr) {
                              broker::report_gram_outcome(
                                  *health_, n.site, n.site, res,
                                  n.requested_walltime, sim_.now());
                            }
                            node_done(run, idx,
                                      compute_result(*run, idx, n.site, res));
                          });
      return;
    }
    case NodeType::kStageIn:
    case NodeType::kStageOut: {
      gridftp::GridFtpServer* src = services_.ftp(node.source_site);
      gridftp::GridFtpServer* dst = services_.ftp(node.site);
      if (src == nullptr || dst == nullptr) {
        NodeResult r = unsubmitted(*run, idx, "ftp-endpoint-missing");
        r.transfer_status = gridftp::TransferStatus::kFailedServerDown;
        node_done(run, idx, std::move(r));
        return;
      }
      gridftp::TransferRequest req;
      req.src = src;
      req.dst = dst;
      req.size = node.bytes;
      req.lfn = node.name;
      req.dest_volume = services_.volume(node.site);
      ftp_.transfer(std::move(req),
                    [this, run, idx](const gridftp::TransferRecord& rec) {
                      const ConcreteNode& n = run->dag.nodes[idx];
                      // Transfer nodes land at the destination SE; their
                      // outcomes score that site's transfer service.
                      if (health_ != nullptr) {
                        health_->report(n.site, health::Service::kTransfer,
                                        rec.ok(), sim_.now());
                      }
                      NodeResult r;
                      r.index = idx;
                      r.type = n.type;
                      r.site = n.site;
                      r.source_site = n.source_site;
                      r.bytes = rec.transferred;
                      r.ok = rec.ok();
                      r.attempts = run->attempts[idx];
                      r.submitted = rec.started;
                      r.started = rec.started;
                      r.finished = rec.finished;
                      r.transfer_status = rec.status;
                      if (!rec.ok()) {
                        r.site_problem = true;  // transfers fail at sites
                        r.failure_class = gridftp::to_string(rec.status);
                      }
                      node_done(run, idx, std::move(r));
                    });
      return;
    }
    case NodeType::kRegister: {
      // Catalog writes are cheap; model a short service round-trip.
      sim_.schedule_in(Time::seconds(2), [this, run, idx] {
        const ConcreteNode& n = run->dag.nodes[idx];
        register_outputs(n.site, n.lfns, n.bytes);
        NodeResult r;
        r.index = idx;
        r.type = n.type;
        r.site = n.site;
        r.ok = true;
        r.attempts = run->attempts[idx];
        r.submitted = r.started = sim_.now();
        r.finished = sim_.now();
        node_done(run, idx, std::move(r));
      });
      return;
    }
  }
}

void DagMan::node_done(const std::shared_ptr<Run>& run, std::size_t idx,
                       NodeResult result) {
  assert(run->outstanding > 0);
  --run->outstanding;
  if (run->on_node) run->on_node(result);

  if (result.ok) {
    run->states[idx] = NodeState::kDone;
    ++run->stats.succeeded;
    run->stats.node_results[idx] = std::move(result);
    launch_ready(run);
    maybe_finish(run);
    return;
  }

  // A failure at a site the health monitor has since quarantined is the
  // grid's fault, not the node's: refund the attempt so the black hole
  // does not drain the retry budget.  Brokered nodes only -- the next
  // attempt re-matches elsewhere, whereas a fixed-site node would just
  // pound the quarantined site forever.
  if (health_ != nullptr && !result.site.empty() &&
      brokered(run->dag.nodes[idx]) && health_->quarantined(result.site) &&
      run->attempts[idx] > 0) {
    --run->attempts[idx];
  }

  if (kNodeRetry.allows(run->attempts[idx] - 1)) {
    ++run->stats.retries;
    run->states[idx] = NodeState::kPending;
    // Hold the slot: mark running again after the delay via start_node.
    ++run->outstanding;  // reserve so the DAG does not finish early
    sim_.schedule_in(kNodeRetry.delay(run->attempts[idx]), [this, run, idx] {
      --run->outstanding;
      if (run->states[idx] == NodeState::kPending) start_node(run, idx);
      maybe_finish(run);
    });
    return;
  }

  run->states[idx] = NodeState::kFailed;
  ++run->stats.failed;
  run->stats.node_results[idx] = std::move(result);
  skip_descendants(run, idx);
  maybe_finish(run);
}

void DagMan::skip_descendants(const std::shared_ptr<Run>& run,
                              std::size_t idx) {
  for (std::size_t c : run->children[idx]) {
    if (run->states[c] == NodeState::kPending) {
      run->states[c] = NodeState::kSkipped;
      ++run->stats.skipped;
      skip_descendants(run, c);
    }
  }
}

void DagMan::maybe_finish(const std::shared_ptr<Run>& run) {
  if (run->finished || run->outstanding > 0) return;
  // Any pending node still launchable?  (launch_ready would have started
  // it; remaining pendings are blocked behind failures -> skipped.)
  for (std::size_t i = 0; i < run->states.size(); ++i) {
    if (run->states[i] == NodeState::kRunning) return;
    if (run->states[i] == NodeState::kPending) {
      // Blocked behind a failed/skipped parent?
      bool blocked = false;
      for (std::size_t p : run->parents[i]) {
        if (run->states[p] == NodeState::kFailed ||
            run->states[p] == NodeState::kSkipped) {
          blocked = true;
          break;
        }
      }
      if (!blocked) return;  // retry in flight or awaiting parents
      run->states[i] = NodeState::kSkipped;
      ++run->stats.skipped;
    }
  }
  run->finished = true;
  run->stats.finished = sim_.now();
  run->stats.success = run->stats.failed == 0 && run->stats.skipped == 0;
  for (std::size_t i = 0; i < run->states.size(); ++i) {
    if (run->states[i] != NodeState::kDone) run->stats.rescue.push_back(i);
  }
  if (run->done) run->done(run->stats);
}

}  // namespace grid3::workflow
