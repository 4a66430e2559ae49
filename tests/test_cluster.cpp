#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/heartbeat.hpp"
#include "cluster/presets.hpp"

namespace rupam {
namespace {

TEST(NodeSpec, HydraClassesMatchTable2) {
  NodeSpec thor = thor_spec();
  EXPECT_EQ(thor.cores, 8);
  EXPECT_DOUBLE_EQ(thor.cpu_ghz, 3.2);
  EXPECT_DOUBLE_EQ(to_gib(thor.memory), 16.0);
  EXPECT_TRUE(thor.has_ssd);
  EXPECT_EQ(thor.gpus, 0);

  NodeSpec hulk = hulk_spec();
  EXPECT_EQ(hulk.cores, 32);
  EXPECT_DOUBLE_EQ(to_gib(hulk.memory), 64.0);
  EXPECT_DOUBLE_EQ(hulk.net_bandwidth, gbit_per_s(10.0));
  EXPECT_FALSE(hulk.has_ssd);

  NodeSpec stack = stack_spec();
  EXPECT_EQ(stack.cores, 16);
  EXPECT_DOUBLE_EQ(to_gib(stack.memory), 48.0);
  EXPECT_EQ(stack.gpus, 1);
}

TEST(NodeSpec, ThorIsFastestPerCore) {
  EXPECT_GT(thor_spec().cpu_perf, hulk_spec().cpu_perf);
  EXPECT_GE(hulk_spec().cpu_perf, stack_spec().cpu_perf);  // Table IV order
}

TEST(Cluster, HydraLayout) {
  Simulator sim;
  Cluster cluster(sim);
  auto ids = build_hydra(cluster);
  EXPECT_EQ(cluster.size(), 12u);
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_EQ(cluster.nodes_of_class("thor").size(), 6u);
  EXPECT_EQ(cluster.nodes_of_class("hulk").size(), 4u);
  EXPECT_EQ(cluster.nodes_of_class("stack").size(), 2u);
  EXPECT_DOUBLE_EQ(to_gib(cluster.min_node_memory()), 16.0);
}

TEST(Cluster, SwitchCapsNominal10GbE) {
  Simulator sim;
  Cluster cluster(sim, gbit_per_s(1.0));
  build_hydra(cluster);
  // hulk's nominal 10 GbE is leveled by the 1 GbE fabric (Table IV).
  for (NodeId id : cluster.nodes_of_class("hulk")) {
    EXPECT_DOUBLE_EQ(cluster.node(id).net().capacity(), gbit_per_s(1.0));
  }
}

TEST(Cluster, MotivationPairAsymmetry) {
  Simulator sim;
  Cluster cluster(sim, gbit_per_s(10.0));
  auto ids = build_motivation_pair(cluster);
  ASSERT_EQ(ids.size(), 2u);
  const NodeSpec& n1 = cluster.node(ids[0]).spec();
  const NodeSpec& n2 = cluster.node(ids[1]).spec();
  EXPECT_LT(n1.cpu_ghz, n2.cpu_ghz);
  EXPECT_LT(n1.net_bandwidth, n2.net_bandwidth);
  EXPECT_EQ(n1.cores, n2.cores);
  EXPECT_EQ(n1.memory, n2.memory);
}

TEST(Cluster, BadNodeIdThrows) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(thor_spec());
  EXPECT_THROW(cluster.node(-1), std::out_of_range);
  EXPECT_THROW(cluster.node(1), std::out_of_range);
}

TEST(NodeMetrics, SnapshotReflectsState) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(stack_spec());
  Node& node = cluster.node(id);
  NodeMetrics idle = node.metrics();
  EXPECT_EQ(idle.node, id);
  EXPECT_DOUBLE_EQ(idle.cpu_util, 0.0);
  EXPECT_EQ(idle.gpus_idle, 1);

  node.cpu().start(1000.0, 1.0, nullptr);
  node.gpus().try_acquire();
  NodeMetrics busy = node.metrics();
  EXPECT_GT(busy.cpu_util, 0.0);
  EXPECT_EQ(busy.gpus_idle, 0);
}

TEST(NodeMetrics, FreeMemoryTracksReporters) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(thor_spec());
  Node& node = cluster.node(id);
  Bytes before = node.free_memory();
  Bytes used = 4.0 * kGiB;
  node.add_memory_reporter([used] { return used; });
  EXPECT_DOUBLE_EQ(node.free_memory(), before - used);
}

TEST(NodeMetrics, CapabilityOrdering) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId thor = cluster.add_node(thor_spec());
  NodeId hulk = cluster.add_node(hulk_spec());
  NodeMetrics mt = cluster.node(thor).metrics();
  NodeMetrics mh = cluster.node(hulk).metrics();
  // CPU queue ranks per-core speed: thor first (the paper's cpufreq).
  EXPECT_GT(mt.capability(ResourceKind::kCpu), mh.capability(ResourceKind::kCpu));
  // Memory queue ranks free memory: hulk first.
  EXPECT_GT(mh.capability(ResourceKind::kMemory), mt.capability(ResourceKind::kMemory));
  // Disk queue ranks SSDs first.
  EXPECT_GT(mt.capability(ResourceKind::kDisk), mh.capability(ResourceKind::kDisk));
}

// Node::capability reads one number instead of building the snapshot; it
// must be that snapshot's number, bit for bit, idle or busy and throttled.
TEST(NodeMetrics, SingleCapabilityMatchesSnapshot) {
  Simulator sim;
  Cluster cluster(sim);
  for (const NodeSpec& spec : {thor_spec(), hulk_spec(), stack_spec()}) {
    Node& node = cluster.node(cluster.add_node(spec));
    for (int state = 0; state < 2; ++state) {
      NodeMetrics m = node.metrics();
      for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
        auto kind = static_cast<ResourceKind>(k);
        EXPECT_EQ(node.capability(kind), m.capability(kind)) << spec.name << " " << k;
      }
      node.cpu().set_capacity_scale(0.4);
      node.gpus().try_acquire();
      node.add_memory_reporter([] { return 3.0 * kGiB; });
    }
  }
}

TEST(Heartbeat, DeliversPeriodicallyFromAllNodes) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  std::vector<int> beats(cluster.size(), 0);
  hb.subscribe([&](NodeId node) { beats[static_cast<std::size_t>(node)]++; });
  hb.start();
  sim.run(10.0);
  // Node 0's phase is 0, so it beats at t=0,1,...,10 (11 beats); the rest
  // land strictly inside the window (10 beats).
  for (int b : beats) {
    EXPECT_GE(b, 10);
    EXPECT_LE(b, 11);
  }
  std::vector<int> frozen = beats;
  hb.stop();
  sim.run(20.0);
  EXPECT_EQ(beats, frozen);  // no beats after stop
}

TEST(Heartbeat, StaggeredNotSimultaneous) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  std::vector<SimTime> times;
  hb.subscribe([&](NodeId) { times.push_back(sim.now()); });
  hb.start();
  sim.run(0.999);
  ASSERT_EQ(times.size(), 12u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
}

TEST(Heartbeat, RejectsBadPeriod) {
  Simulator sim;
  Cluster cluster(sim);
  EXPECT_THROW(HeartbeatService(cluster, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace rupam
