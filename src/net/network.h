// Wide-area network model connecting Grid3 sites.
//
// Topology: every node (site NIC, external archive) has an access link
// into an over-provisioned backbone -- the realistic regime for 2003
// ESnet/Abilene paths, where the site uplink (often the gatekeeper NIC,
// paper section 6.4 requirement 4) was the bottleneck.  Concurrent flows
// share links max-min fairly via progressive filling.
//
// Every flow start/finish and node outage re-solves the fair
// shares of every link with active flows (docs/KERNEL.md describes the
// solver).  The pinned campaign digests depend on two properties of the
// solve's side effects: a flow's progress anchor advances only when its
// rate changes, and completion events are cancelled and rescheduled
// only for flows whose rate moved, in FlowId order, so every replay
// issues the same schedule/cancel calls and gets the same event ids.
//
// Operation costs (L = links with active flows, F = active flows):
//
//   start_flow / completion   O(L^2) solve, O(F) settle
//   set_node_up(false)        O(F) victim scan + O(L^2)
//   flow_rate                 O(log F)
//
// The network keeps no per-node byte or rate counters: a transfer's
// bytes reach the accounting through its FlowResult, and the paper's
// data-consumed figure (Figure 5) reads the ACDC transfer records.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/simulation.h"
#include "util/units.h"

namespace grid3::net {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

enum class FlowStatus {
  kCompleted,
  kFailedNetworkInterruption,  ///< an endpoint went down mid-transfer
  kFailedNoRoute,              ///< firewall / connectivity policy refused
};

[[nodiscard]] const char* to_string(FlowStatus s);

struct FlowResult {
  FlowId id = 0;
  FlowStatus status = FlowStatus::kCompleted;
  Bytes requested;
  Bytes transferred;
  Time started;
  Time finished;
  [[nodiscard]] bool ok() const { return status == FlowStatus::kCompleted; }
  [[nodiscard]] Bandwidth achieved() const {
    const double secs = (finished - started).to_seconds();
    return secs > 0 ? Bandwidth::bytes_per_sec(
                          static_cast<double>(transferred.count()) / secs)
                    : Bandwidth{};
  }
};

using FlowCallback = std::function<void(const FlowResult&)>;

struct NodeConfig {
  Bandwidth uplink = Bandwidth::mbps(100);
  Bandwidth downlink = Bandwidth::mbps(100);
  /// Worker nodes on a private network cannot open outbound connections
  /// (application site-selection requirement 1, section 6.4).
  bool outbound_allowed = true;
};

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_{sim} {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node(NodeConfig cfg);

  /// Mark an endpoint down/up (network interruption injection).  Going
  /// down fails all flows touching the node.
  void set_node_up(NodeId n, bool up);

  /// Firewall rule: block src -> dst (simulates closed ports, section 6.3
  /// "issues of account privileges, ports, and firewalls").
  void block_route(NodeId src, NodeId dst);
  void unblock_route(NodeId src, NodeId dst);
  [[nodiscard]] bool route_open(NodeId src, NodeId dst) const;

  /// Start a bulk transfer of `size` from src to dst.  The callback fires
  /// exactly once.  Returns 0 and fires the callback synchronously with
  /// kFailedNoRoute if connectivity policy refuses the pair.
  FlowId start_flow(NodeId src, NodeId dst, Bytes size, FlowCallback done);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Current max-min fair rate of a flow (0 if unknown/stalled).
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;

  // --- solver-cost introspection (bench + tests) -----------------------

  /// Progressive-filling invocations since construction.
  [[nodiscard]] std::uint64_t reallocs() const { return reallocs_; }
  /// Links visited across all solves (every active link, per solve).
  [[nodiscard]] std::uint64_t links_solved() const { return links_solved_; }

 private:
  struct Node {
    NodeConfig cfg;
    bool up = true;
  };
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    Bytes size;
    /// Progress anchor: bytes done at anchor_time.  Advanced ONLY when
    /// the rate changes, so done_at() is a pure function of `now` and
    /// settles cannot perturb floating-point accumulation.
    double anchor_done = 0.0;
    Time anchor_time;
    Time started;
    double rate_bps = -1.0;  ///< -1 until the first solve assigns a rate
    sim::EventId completion = 0;
    FlowCallback callback;
  };

  /// Link key: node * 2 + direction (0 = out/uplink, 1 = in/downlink).
  [[nodiscard]] static std::uint64_t link_out(NodeId n) {
    return static_cast<std::uint64_t>(n) * 2;
  }
  [[nodiscard]] static std::uint64_t link_in(NodeId n) {
    return static_cast<std::uint64_t>(n) * 2 + 1;
  }
  [[nodiscard]] double link_capacity(std::uint64_t key) const;

  /// Bytes transferred by `now` at the anchored rate (pure; clamped at
  /// the flow size).
  [[nodiscard]] double done_at(const Flow& f, Time now) const;

  void attach_links(FlowId id, const Flow& f);
  void detach_links(FlowId id, const Flow& f);

  /// Progressive-filling max-min fair allocation over every active
  /// link; settles and reschedules completions only for flows whose
  /// rate actually moved.
  void reallocate();
  void on_completion(FlowId id);
  void finish_flow(FlowId id, FlowStatus status);

  sim::Simulation& sim_;
  std::vector<Node> nodes_;
  std::map<FlowId, Flow> flows_;
  /// Active flows per link, in FlowId order (flows attach in id order
  /// and detach preserving order).  Erased when empty, so iteration
  /// covers exactly the links with traffic.
  std::map<std::uint64_t, std::vector<FlowId>> link_flows_;
  std::map<std::pair<NodeId, NodeId>, bool> blocked_;
  FlowId next_flow_ = 1;
  std::uint64_t reallocs_ = 0;
  std::uint64_t links_solved_ = 0;
};

}  // namespace grid3::net
