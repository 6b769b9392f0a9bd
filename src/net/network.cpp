#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace grid3::net {

const char* to_string(FlowStatus s) {
  switch (s) {
    case FlowStatus::kCompleted: return "completed";
    case FlowStatus::kFailedNetworkInterruption: return "network-interruption";
    case FlowStatus::kFailedNoRoute: return "no-route";
    case FlowStatus::kCancelled: return "cancelled";
  }
  return "?";
}

NodeId Network::add_node(NodeConfig cfg) {
  nodes_.push_back({std::move(cfg), true});
  return static_cast<NodeId>(nodes_.size() - 1);
}

double Network::link_capacity(std::uint64_t key) const {
  const Node& node = nodes_[static_cast<std::size_t>(key / 2)];
  return (key & 1U) != 0 ? node.cfg.downlink.bps() : node.cfg.uplink.bps();
}

double Network::done_at(const Flow& f, Time now) const {
  if (f.rate_bps <= 0.0) return f.anchor_done;
  const double secs = (now - f.anchor_time).to_seconds();
  if (secs <= 0.0) return f.anchor_done;
  return std::min(f.anchor_done + f.rate_bps * secs,
                  static_cast<double>(f.size.count()));
}

void Network::attach_links(FlowId id, const Flow& f) {
  link_flows_[link_out(f.src)].push_back(id);
  link_flows_[link_in(f.dst)].push_back(id);
}

void Network::detach_links(FlowId id, const Flow& f) {
  for (const std::uint64_t key : {link_out(f.src), link_in(f.dst)}) {
    auto it = link_flows_.find(key);
    if (it == link_flows_.end()) continue;
    auto& members = it->second;
    // Order-preserving erase: member order is FlowId order, which fixes
    // the solver's arithmetic order.
    members.erase(std::remove(members.begin(), members.end(), id),
                  members.end());
    if (members.empty()) link_flows_.erase(it);
  }
}

void Network::reallocate() {
  ++reallocs_;
  links_solved_ += link_flows_.size();
  if (link_flows_.empty()) return;

  // Progressive filling: repeatedly freeze the most-constrained
  // unsaturated link at the equal share, deduct the frozen flows from
  // their other endpoints, and continue.  Links are visited in ascending
  // key order (link_flows_ is a sorted map), which fixes how ties in the
  // freeze order resolve.
  struct SolveLink {
    std::uint64_t key;
    double capacity;
    std::size_t unassigned;
    bool saturated;
    const std::vector<FlowId>* members;
  };
  std::vector<SolveLink> links;
  links.reserve(link_flows_.size());
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(link_flows_.size() * 2);
  for (const auto& [key, members] : link_flows_) {
    links.push_back(
        {key, link_capacity(key), members.size(), false, &members});
    index.emplace(key, links.size() - 1);
  }
  std::unordered_map<FlowId, double> new_rate;  // -1 = unassigned
  for (const SolveLink& l : links) {
    for (const FlowId id : *l.members) new_rate.emplace(id, -1.0);
  }

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  for (;;) {
    double best_share = 0.0;
    std::size_t best = kNone;
    for (std::size_t i = 0; i < links.size(); ++i) {
      SolveLink& l = links[i];
      if (l.saturated) continue;
      if (l.unassigned == 0) {
        l.saturated = true;
        continue;
      }
      const double share =
          l.capacity / static_cast<double>(l.unassigned);
      if (best == kNone || share < best_share) {
        best_share = share;
        best = i;
      }
    }
    if (best == kNone) break;
    links[best].saturated = true;
    const std::uint64_t best_key = links[best].key;
    for (const FlowId id : *links[best].members) {
      double& rate = new_rate.find(id)->second;
      if (rate >= 0.0) continue;
      rate = best_share;
      // Deduct the frozen flow's rate from its other link.
      const Flow& f = flows_.find(id)->second;
      const std::uint64_t out_key = link_out(f.src);
      const std::uint64_t other =
          best_key == out_key ? link_in(f.dst) : out_key;
      SolveLink& ol = links[index.find(other)->second];
      if (!ol.saturated) {
        ol.capacity = std::max(0.0, ol.capacity - best_share);
        --ol.unassigned;
      }
    }
  }

  // Apply in FlowId order: only flows whose rate actually moved get
  // settled (anchor advance) and their completion rescheduled (see the
  // determinism note in network.h).
  const Time now = sim_.now();
  for (auto& entry : flows_) {
    const FlowId id = entry.first;
    Flow& f = entry.second;
    double rate = new_rate.find(id)->second;
    if (rate < 0.0) rate = 0.0;
    if (rate == f.rate_bps) continue;  // untouched: event + anchor stand
    const double done = done_at(f, now);
    f.anchor_done = done;
    f.anchor_time = now;
    f.rate_bps = rate;
    if (f.completion != 0) {
      sim_.cancel(f.completion);
      f.completion = 0;
    }
    const double remaining = static_cast<double>(f.size.count()) - done;
    if (remaining <= 0.0) {
      f.completion = sim_.schedule_at(now, [this, id] { on_completion(id); });
    } else if (rate > 0.0) {
      const Time eta = Time::seconds(remaining / rate);
      f.completion = sim_.schedule_at(now + eta + Time::micros(1),
                                      [this, id] { on_completion(id); });
    }
  }
}

void Network::on_completion(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& f = it->second;
  // Stale-rate guard: a live completion event always fired at the rate
  // it was scheduled under (rate changes cancel it), so this only trips
  // on floating-point edge rounding.
  if (done_at(f, sim_.now()) <
      static_cast<double>(f.size.count()) - 0.5) {
    return;
  }
  finish_flow(id, FlowStatus::kCompleted);
  reallocate();
}

FlowId Network::start_flow(NodeId src, NodeId dst, Bytes size,
                           FlowCallback done) {
  assert(src < nodes_.size() && dst < nodes_.size());
  const Time now = sim_.now();
  if (!route_open(src, dst) || !nodes_[src].up || !nodes_[dst].up) {
    FlowResult r;
    r.status = !route_open(src, dst) ? FlowStatus::kFailedNoRoute
                                     : FlowStatus::kFailedNetworkInterruption;
    r.requested = size;
    r.started = r.finished = now;
    if (done) done(r);
    return 0;
  }
  const FlowId id = next_flow_++;
  Flow f;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.started = now;
  f.anchor_time = now;
  f.callback = std::move(done);
  attach_links(id, f);
  flows_.emplace(id, std::move(f));
  reallocate();
  return id;
}

void Network::cancel_flow(FlowId id) {
  if (!flows_.contains(id)) return;
  finish_flow(id, FlowStatus::kCancelled);
  reallocate();
}

void Network::set_node_up(NodeId n, bool up) {
  Node& node = nodes_.at(n);
  if (node.up == up) return;
  node.up = up;
  if (!up) {
    // Fail every flow touching the node.  Collect ids first: finishing a
    // flow mutates the map and runs user callbacks (which may start new
    // flows reentrantly).
    std::vector<FlowId> victims;
    for (const auto& [id, f] : flows_) {
      if (f.src == n || f.dst == n) victims.push_back(id);
    }
    for (const FlowId id : victims) {
      finish_flow(id, FlowStatus::kFailedNetworkInterruption);
    }
  }
  // Going down freed the victims' capacity.  Coming back up frees
  // capacity no flow was waiting on (none can touch a down node), so that
  // solve moves no rate.
  reallocate();
}

void Network::block_route(NodeId src, NodeId dst) {
  blocked_[{src, dst}] = true;
}

void Network::unblock_route(NodeId src, NodeId dst) {
  blocked_.erase({src, dst});
}

bool Network::route_open(NodeId src, NodeId dst) const {
  if (blocked_.contains({src, dst})) return false;
  return nodes_.at(src).cfg.outbound_allowed || src == dst;
}

Bandwidth Network::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() || it->second.rate_bps <= 0.0
             ? Bandwidth{}
             : Bandwidth::bytes_per_sec(it->second.rate_bps);
}

void Network::finish_flow(FlowId id, FlowStatus status) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow f = std::move(it->second);
  detach_links(id, f);
  flows_.erase(it);
  if (f.completion != 0) sim_.cancel(f.completion);

  const Time now = sim_.now();
  FlowResult r;
  r.id = id;
  r.status = status;
  r.requested = f.size;
  r.transferred =
      status == FlowStatus::kCompleted
          ? f.size
          : Bytes::of(static_cast<std::int64_t>(done_at(f, now)));
  r.started = f.started;
  r.finished = now;
  if (f.callback) f.callback(r);
}

}  // namespace grid3::net
