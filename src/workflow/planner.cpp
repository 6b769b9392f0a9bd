#include "workflow/planner.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "broker/broker.h"
#include "health/health.h"
#include "mds/schema.h"

namespace grid3::workflow {

std::vector<std::string> split_quarantined(
    const health::SiteHealthMonitor* health,
    std::vector<std::string>& candidates) {
  std::vector<std::string> deferred;
  if (health == nullptr) return deferred;
  const auto healthy_end =
      std::stable_partition(candidates.begin(), candidates.end(),
                            [health](const std::string& site) {
                              return !health->quarantined(site);
                            });
  if (healthy_end == candidates.begin()) return deferred;
  deferred.assign(std::make_move_iterator(healthy_end),
                  std::make_move_iterator(candidates.end()));
  candidates.erase(healthy_end, candidates.end());
  return deferred;
}

bool PegasusPlanner::site_admissible(const std::string& site) const {
  return health_ == nullptr || !health_->quarantined(site);
}

std::vector<std::string> PegasusPlanner::archive_chain(
    const PlannerConfig& cfg) const {
  std::vector<std::string> chain;
  chain.reserve(1 + cfg.archive_fallbacks.size());
  chain.push_back(cfg.archive_site);
  for (const std::string& se : cfg.archive_fallbacks) chain.push_back(se);
  // Demote quarantined SEs to the tail instead of dropping them: the
  // ledger still reaches them if every healthy SE is full, and a
  // quarantine that lifts before launch needs no re-plan.  The stable
  // partition keeps the derivation deterministic.
  std::stable_partition(chain.begin(), chain.end(),
                        [this](const std::string& se) {
                          return site_admissible(se);
                        });
  return chain;
}

std::vector<std::string> PegasusPlanner::eligible_sites(
    const std::string& required_app, Time max_runtime,
    const PlannerConfig& cfg, Time now) const {
  const Time needed_walltime =
      Time::seconds(max_runtime.to_seconds() * cfg.walltime_slack);
  const std::string app_key = mds::app_attribute(required_app);
  auto snaps = giis_.find(
      [&](const mds::SiteSnapshot& s) {
        if (!required_app.empty() && !s.has(app_key)) return false;
        if (auto free = s.get_int(mds::DynamicAttr::kFreeCpus);
            free.has_value() && *free < cfg.min_free_cpus) {
          return false;
        }
        if (auto limit = s.get_int(mds::glue::kMaxWallClockMinutes);
            limit.has_value() &&
            Time::minutes(static_cast<double>(*limit)) < needed_walltime) {
          return false;
        }
        if (cfg.need_outbound) {
          auto outbound = s.get_bool(mds::grid3ext::kOutboundConnectivity);
          if (!outbound.has_value() || !*outbound) return false;
        }
        return true;
      },
      now);
  std::vector<std::string> out;
  out.reserve(snaps.size());
  for (const auto& s : snaps) out.push_back(s.site);
  std::sort(out.begin(), out.end());
  return out;
}

std::string PegasusPlanner::choose_site(
    const std::vector<std::string>& candidates, const PlannerConfig& cfg,
    util::Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (const std::string& site : candidates) {
    auto it = cfg.site_preference.find(site);
    weights.push_back(it == cfg.site_preference.end() ? 1.0 : it->second);
  }
  return candidates[rng.weighted_index(weights)];
}

namespace {

/// Forward topological order of an abstract DAG (Kahn's algorithm over a
/// child adjacency list built once: O(V + E)).
std::vector<std::size_t> topo_order(const AbstractDag& dag) {
  std::vector<std::size_t> indegree(dag.jobs.size(), 0);
  std::vector<std::vector<std::size_t>> children(dag.jobs.size());
  for (const auto& [p, c] : dag.edges) {
    ++indegree[c];
    children[p].push_back(c);
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t j = ready.back();
    ready.pop_back();
    order.push_back(j);
    for (std::size_t c : children[j]) {
      if (--indegree[c] == 0) ready.push_back(c);
    }
  }
  return order;
}

}  // namespace

std::optional<ConcreteDag> PegasusPlanner::plan(const AbstractDag& dag,
                                                const PlannerConfig& cfg,
                                                util::Rng& rng,
                                                Time now) const {
  ConcreteDag out;
  // Map: abstract index -> concrete compute-node index (SIZE_MAX = pruned).
  constexpr std::size_t kPruned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> compute_index(dag.jobs.size(), kPruned);

  // Which outputs have consumers inside the DAG (non-final)?
  std::map<std::string, bool> consumed;
  for (const AbstractJob& j : dag.jobs) {
    for (const std::string& in : j.inputs) consumed[in] = true;
  }

  // Workflow reduction (Pegasus "virtual data reuse"): processing jobs in
  // reverse topological order, a derivation runs only if it must produce
  // at least one LFN that (a) has no registered replica and (b) is either
  // a final output or consumed by a job that runs.
  std::vector<char> runs(dag.jobs.size(), 1);
  if (cfg.reuse_existing) {
    auto exists = [&](const std::string& lfn) {
      return !rls_.locate(lfn, now).empty();
    };
    // Consumers of each LFN, by job index.
    std::map<std::string, std::vector<std::size_t>> lfn_consumers;
    for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
      for (const std::string& in : dag.jobs[i].inputs) {
        lfn_consumers[in].push_back(i);
      }
    }
    const auto order = topo_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t i = *it;
      bool needed = false;
      for (const std::string& o : dag.jobs[i].outputs) {
        if (exists(o)) continue;
        auto cit = lfn_consumers.find(o);
        const bool is_final = cit == lfn_consumers.end();
        if (is_final) {
          needed = true;
          break;
        }
        for (std::size_t c : cit->second) {
          if (runs[c]) {
            needed = true;
            break;
          }
        }
        if (needed) break;
      }
      runs[i] = needed ? 1 : 0;
    }
  }

  // LFN -> some surviving job produces it (built once; scanning every
  // job's outputs per input was quadratic on wide DAGs).
  std::set<std::string> produced_by_runner;
  for (std::size_t p = 0; p < dag.jobs.size(); ++p) {
    if (!runs[p]) continue;
    for (const std::string& o : dag.jobs[p].outputs) {
      produced_by_runner.insert(o);
    }
  }

  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    const AbstractJob& job = dag.jobs[i];
    if (!runs[i]) continue;

    std::vector<std::string> candidates =
        eligible_sites(job.required_app, job.runtime, cfg, now);
    if (candidates.empty()) {
      last_error_ = PlanError::kNoEligibleSite;
      return std::nullopt;
    }

    // Health-aware planning: quarantined sites leave the candidate set
    // at plan time, so fixed-site nodes stop burning DAGMan retries on
    // condemned sites.  Brokered nodes keep them as deferred
    // candidates (re-admitted at match time when the breaker closes).
    std::vector<std::string> quarantined_now =
        split_quarantined(health_, candidates);

    std::string site;
    std::optional<broker::JobSpec> spec;
    if (broker_ != nullptr) {
      // Late binding: placement here is provisional (it seeds the staging
      // topology); the broker re-matches against its live view when
      // DAGMan dispatches the node.
      broker::JobSpec s;
      s.vo = cfg.vo;
      s.app = job.transformation;
      s.required_app = job.required_app;
      s.runtime = job.runtime;
      s.walltime_slack = cfg.walltime_slack;
      s.min_free_cpus = cfg.min_free_cpus;
      s.need_outbound = cfg.need_outbound;
      s.site_preference = cfg.site_preference;
      s.data_inputs = job.inputs;
      s.rls = &rls_;
      s.scratch = job.scratch;
      s.candidates = candidates;
      s.deferred_candidates = quarantined_now;
      site = broker_->choose(s, now).value_or(candidates.front());
      spec = std::move(s);
    } else {
      // Locality: prefer the first already-planned parent's site.
      std::string parent_site;
      for (std::size_t p : dag.parents(i)) {
        if (compute_index[p] != kPruned) {
          parent_site = out.nodes[compute_index[p]].site;
          break;
        }
      }
      if (!parent_site.empty() &&
          std::find(candidates.begin(), candidates.end(), parent_site) !=
              candidates.end() &&
          rng.chance(cfg.locality)) {
        site = parent_site;
      } else {
        site = choose_site(candidates, cfg, rng);
      }
    }

    ConcreteNode node;
    node.type = NodeType::kCompute;
    node.name = job.derivation_id;
    node.site = site;
    node.derivation_id = job.derivation_id;
    node.runtime = job.runtime;
    // Users pad their walltime request, but ~5% of requests underestimate
    // the actual runtime -- those die at the queue limit on enforcing
    // schedulers (a classic production failure).
    const double padding = rng.chance(0.10)
                               ? rng.uniform(0.65, 0.95)
                               : cfg.walltime_slack;
    node.requested_walltime =
        Time::seconds(job.runtime.to_seconds() * padding);
    node.scratch = job.scratch;
    node.lfns = job.outputs;

    // External inputs -- no producer in the DAG, or the producer was
    // pruned because a replica already exists: resolve via RLS and fold
    // the bytes into jobmanager staging.
    Bytes external_in;
    for (const std::string& in : job.inputs) {
      if (produced_by_runner.count(in) != 0) continue;
      for (const auto& [rsite, replica] : rls_.locate(in, now)) {
        if (rsite == site) {
          break;  // local replica, no staging
        }
        external_in += replica.size;
        node.source_site = rsite;
        break;  // first remote replica wins
      }
    }
    node.bytes = external_in;
    if (spec.has_value()) {
      spec->stage_in = external_in;
      spec->source_site = node.source_site;  // replica chosen above
      node.broker_spec = std::move(spec);
    }

    compute_index[i] = out.nodes.size();
    out.nodes.push_back(std::move(node));
  }

  if (out.nodes.empty()) {
    // Everything pruned: an empty (trivially successful) plan.
    return out;
  }

  // Dependency edges between surviving compute nodes, with stage-in nodes
  // where parent and child landed on different sites.
  for (const auto& [p, c] : dag.edges) {
    if (compute_index[p] == kPruned || compute_index[c] == kPruned) continue;
    const std::size_t cp = compute_index[p];
    const std::size_t cc = compute_index[c];
    if (out.nodes[cp].site == out.nodes[cc].site) {
      out.edges.emplace_back(cp, cc);
    } else if (broker_ != nullptr) {
      // Brokered plans cannot pre-place a mover (the child's real site is
      // matched at dispatch); fold the parent's output into the child's
      // jobmanager staging from the parent's provisional site instead.
      out.nodes[cc].bytes += dag.jobs[p].output_size;
      if (out.nodes[cc].source_site.empty()) {
        // Provisional: DAGMan rewrites this from the parent's actual
        // completion site once late binding resolves it.
        out.nodes[cc].source_site = out.nodes[cp].site;
        out.nodes[cc].source_parent = cp;
      }
      if (out.nodes[cc].broker_spec.has_value()) {
        out.nodes[cc].broker_spec->stage_in += dag.jobs[p].output_size;
        // Data-affinity hint for the broker's ranking; DAGMan rewrites
        // it alongside node.source_site when the parent completes.
        out.nodes[cc].broker_spec->source_site = out.nodes[cc].source_site;
      }
      out.edges.emplace_back(cp, cc);
    } else {
      ConcreteNode mover;
      mover.type = NodeType::kStageIn;
      mover.name = "stage:" + out.nodes[cp].name + "->" + out.nodes[cc].name;
      mover.site = out.nodes[cc].site;
      mover.source_site = out.nodes[cp].site;
      mover.bytes = dag.jobs[p].output_size;
      mover.lfns = dag.jobs[p].outputs;
      const std::size_t mi = out.nodes.size();
      out.nodes.push_back(std::move(mover));
      out.edges.emplace_back(cp, mi);
      out.edges.emplace_back(mi, cc);
    }
  }

  // Stage-out + register for final (or all) outputs.  The archive
  // target is a failover chain ([archive_site] + archive_fallbacks),
  // reordered healthy-first when a health monitor is attached.
  const std::vector<std::string> chain =
      cfg.archive_site.empty() ? std::vector<std::string>{}
                               : archive_chain(cfg);
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    if (compute_index[i] == kPruned) continue;
    const AbstractJob& job = dag.jobs[i];
    bool is_final = cfg.archive_all;
    if (!is_final) {
      is_final = std::any_of(job.outputs.begin(), job.outputs.end(),
                             [&](const std::string& o) {
                               auto it = consumed.find(o);
                               return it == consumed.end() || !it->second;
                             });
    }
    if (!is_final || job.outputs.empty() || cfg.archive_site.empty()) {
      continue;
    }
    const std::size_t ci = compute_index[i];
    if (out.nodes[ci].broker_spec.has_value()) {
      // Brokered plans carry the archive step as a placement intent
      // instead of hard-coded stage-out/register nodes: the broker
      // leases SRM space at the archive SE before binding, the
      // gatekeeper's stage-out lands inside the lease, and DAGMan
      // registers the outputs in RLS on success.
      broker::JobSpec& bs = *out.nodes[ci].broker_spec;
      bs.stage_out_site = chain.front();
      bs.stage_out_fallbacks.assign(chain.begin() + 1, chain.end());
      bs.stage_out = job.output_size;
      bs.output_lfns = job.outputs;
      continue;
    }
    // Fixed-site plans cannot fall through at stage-out time, so the
    // chain's healthy head is the whole decision.
    ConcreteNode so;
    so.type = NodeType::kStageOut;
    so.name = "archive:" + job.derivation_id;
    so.site = chain.front();
    so.source_site = out.nodes[ci].site;
    so.bytes = job.output_size;
    so.lfns = job.outputs;
    const std::size_t si = out.nodes.size();
    out.nodes.push_back(std::move(so));
    out.edges.emplace_back(ci, si);

    ConcreteNode reg;
    reg.type = NodeType::kRegister;
    reg.name = "register:" + job.derivation_id;
    reg.site = chain.front();
    reg.bytes = job.output_size;
    reg.lfns = job.outputs;
    const std::size_t ri = out.nodes.size();
    out.nodes.push_back(std::move(reg));
    out.edges.emplace_back(si, ri);
  }

  // Gang tagging (brokered plans): the sibling jobs of one abstract-DAG
  // level -- equal depth, feeding a common child (the N-simulations ->
  // merge shape of CMS/ATLAS production) -- share a gang_id, so DAGMan
  // submits the level as a unit and the broker can co-locate it.  The
  // union-find joins same-depth surviving parents of each child; gang
  // ids are assigned in first-member index order, keeping plans
  // deterministic.
  if (broker_ != nullptr && cfg.gang_matching && !dag.jobs.empty()) {
    std::vector<int> depth(dag.jobs.size(), 0);
    std::vector<std::vector<std::size_t>> children(dag.jobs.size());
    for (const auto& [p, c] : dag.edges) children[p].push_back(c);
    for (std::size_t j : topo_order(dag)) {
      for (std::size_t c : children[j]) {
        depth[c] = std::max(depth[c], depth[j] + 1);
      }
    }
    std::vector<std::size_t> uf(dag.jobs.size());
    for (std::size_t i = 0; i < uf.size(); ++i) uf[i] = i;
    auto find = [&uf](std::size_t x) {
      while (uf[x] != x) {
        uf[x] = uf[uf[x]];
        x = uf[x];
      }
      return x;
    };
    for (std::size_t c = 0; c < dag.jobs.size(); ++c) {
      // Union the surviving same-depth parents of c, smallest index as
      // the anchor per depth.
      std::map<int, std::size_t> anchor;
      for (std::size_t p : dag.parents(c)) {
        if (compute_index[p] == kPruned) continue;
        auto [it, fresh] = anchor.try_emplace(depth[p], p);
        if (!fresh) uf[find(p)] = find(it->second);
      }
    }
    std::map<std::size_t, std::vector<std::size_t>> gangs;  // root -> members
    for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
      if (compute_index[i] == kPruned) continue;
      gangs[find(i)].push_back(i);  // ascending i: members in index order
    }
    std::size_t gang_seq = 0;
    std::vector<std::size_t> roots;  // first-member order == root order here
    for (const auto& [root, members] : gangs) roots.push_back(root);
    std::sort(roots.begin(), roots.end(),
              [&gangs](std::size_t a, std::size_t b) {
                return gangs.at(a).front() < gangs.at(b).front();
              });
    for (std::size_t root : roots) {
      const auto& members = gangs[root];
      if (members.size() < 2) continue;
      const std::string gang_id =
          cfg.vo + ":gang" + std::to_string(++gang_seq);
      // Level-aggregate intermediates: member outputs consumed inside
      // the DAG (the merge's inputs), which the gang lease reserves.
      Bytes intermediates;
      for (std::size_t m : members) {
        const AbstractJob& mj = dag.jobs[m];
        const bool feeds_dag =
            std::any_of(mj.outputs.begin(), mj.outputs.end(),
                        [&](const std::string& o) {
                          auto it = consumed.find(o);
                          return it != consumed.end() && it->second;
                        });
        if (feeds_dag) intermediates += mj.output_size;
      }
      for (std::size_t m : members) {
        broker::JobSpec& bs = *out.nodes[compute_index[m]].broker_spec;
        bs.gang_id = gang_id;
        bs.gang_width = static_cast<int>(members.size());
        bs.gang_intermediates = intermediates;
      }
    }
  }
  return out;
}

}  // namespace grid3::workflow
