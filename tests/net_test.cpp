// Unit tests for the WAN model: fair sharing, outages, routing policy.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"

namespace grid3::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Network net{sim};

  NodeId add(double mbps, bool outbound = true) {
    return net.add_node(
        {Bandwidth::mbps(mbps), Bandwidth::mbps(mbps), outbound});
  }
};

TEST_F(NetTest, SingleFlowUsesBottleneck) {
  const NodeId a = add(100);
  const NodeId b = add(50);
  std::optional<FlowResult> result;
  net.start_flow(a, b, Bytes::mb(50), [&](const FlowResult& r) {
    result = r;
  });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  // 50 MB at 50 Mbps (6.25 MB/s) = 8 s.
  EXPECT_NEAR((result->finished - result->started).to_seconds(), 8.0, 0.1);
}

TEST_F(NetTest, TwoFlowsShareFairly) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  const NodeId c = add(100);
  // Two flows into b: each should get half of b's downlink.
  int done = 0;
  Time t1, t2;
  net.start_flow(a, b, Bytes::mb(25), [&](const FlowResult& r) {
    ++done;
    t1 = r.finished;
  });
  net.start_flow(c, b, Bytes::mb(25), [&](const FlowResult& r) {
    ++done;
    t2 = r.finished;
  });
  sim.run();
  EXPECT_EQ(done, 2);
  // 25 MB at 6.25 MB/s (half of 12.5) = 4 s.
  EXPECT_NEAR(t1.to_seconds(), 4.0, 0.2);
  EXPECT_NEAR(t2.to_seconds(), 4.0, 0.2);
}

TEST_F(NetTest, UnevenFlowsRedistribute) {
  // One small and one large flow into the same sink: after the small one
  // finishes, the large flow speeds up.
  const NodeId a = add(100);
  const NodeId b = add(100);
  const NodeId c = add(100);
  Time small_done, large_done;
  net.start_flow(a, b, Bytes::mb(12.5),
                 [&](const FlowResult& r) { small_done = r.finished; });
  net.start_flow(c, b, Bytes::mb(37.5),
                 [&](const FlowResult& r) { large_done = r.finished; });
  sim.run();
  // Small: 12.5 MB at 6.25 MB/s = 2 s.  Large: 12.5 MB in the first 2 s,
  // then 25 MB at full 12.5 MB/s = 2 more seconds -> 4 s total.
  EXPECT_NEAR(small_done.to_seconds(), 2.0, 0.1);
  EXPECT_NEAR(large_done.to_seconds(), 4.0, 0.2);
}

TEST_F(NetTest, NodeOutageFailsFlows) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  std::optional<FlowResult> result;
  net.start_flow(a, b, Bytes::gb(10), [&](const FlowResult& r) {
    result = r;
  });
  sim.schedule_at(Time::seconds(5), [&] { net.set_node_up(b, false); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, FlowStatus::kFailedNetworkInterruption);
  EXPECT_GT(result->transferred.count(), 0);
  EXPECT_LT(result->transferred, Bytes::gb(10));
}

TEST_F(NetTest, FlowToDownNodeFailsImmediately) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  net.set_node_up(b, false);
  std::optional<FlowResult> result;
  net.start_flow(a, b, Bytes::mb(1), [&](const FlowResult& r) {
    result = r;
  });
  ASSERT_TRUE(result.has_value());  // synchronous failure
  EXPECT_EQ(result->status, FlowStatus::kFailedNetworkInterruption);
}

TEST_F(NetTest, BlockedRouteRefused) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  net.block_route(a, b);
  std::optional<FlowResult> result;
  net.start_flow(a, b, Bytes::mb(1), [&](const FlowResult& r) {
    result = r;
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, FlowStatus::kFailedNoRoute);
  net.unblock_route(a, b);
  EXPECT_TRUE(net.route_open(a, b));
}

TEST_F(NetTest, PrivateNodesCannotOpenOutbound) {
  const NodeId a = add(100, /*outbound=*/false);
  const NodeId b = add(100);
  EXPECT_FALSE(net.route_open(a, b));
  EXPECT_TRUE(net.route_open(b, a));  // inbound still fine
}

TEST_F(NetTest, CancelFlowReportsCancelled) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  std::optional<FlowResult> result;
  const FlowId id = net.start_flow(a, b, Bytes::gb(100),
                                   [&](const FlowResult& r) { result = r; });
  sim.schedule_at(Time::seconds(1), [&] { net.cancel_flow(id); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, FlowStatus::kCancelled);
}

TEST_F(NetTest, RateQueriesReflectActiveFlows) {
  const NodeId a = add(100);
  const NodeId b = add(100);
  const FlowId id = net.start_flow(a, b, Bytes::gb(1), [](const FlowResult&) {});
  EXPECT_GT(net.flow_rate(id).bps(), 0.0);
  EXPECT_EQ(net.active_flows(), 1u);
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(NetTest, ManyFlowsAllComplete) {
  const NodeId hub = add(1000);
  std::vector<NodeId> leaves;
  for (int i = 0; i < 10; ++i) {
    leaves.push_back(add(100));
  }
  int completed = 0;
  for (NodeId leaf : leaves) {
    net.start_flow(leaf, hub, Bytes::mb(10), [&](const FlowResult& r) {
      if (r.ok()) ++completed;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 10);
}

}  // namespace
}  // namespace grid3::net
