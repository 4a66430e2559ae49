#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/heartbeat.hpp"
#include "cluster/presets.hpp"
#include "exec/executor.hpp"

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

// The node's one executor reports its heap: free memory reads it directly.
TEST(NodeMetrics, FreeMemoryTracksReporters) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(thor_spec());
  Node& node = cluster.node(id);
  Bytes before = node.free_memory();
  Bytes used = 4.0 * kGiB;
  {
    Executor exec(sim, node, id, ExecutorConfig{});
    exec.cache().put("block", used);
    EXPECT_DOUBLE_EQ(node.free_memory(), before - used);
  }
  EXPECT_DOUBLE_EQ(node.free_memory(), before);  // a destroyed executor detaches
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
  std::vector<std::unique_ptr<Executor>> executors;
  for (const NodeSpec& spec : {thor_spec(), hulk_spec(), stack_spec()}) {
    NodeId id = cluster.add_node(spec);
    Node& node = cluster.node(id);
    executors.push_back(std::make_unique<Executor>(sim, node, id, ExecutorConfig{}));
    for (int state = 0; state < 2; ++state) {
      NodeMetrics m = node.metrics();
      for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
        auto kind = static_cast<ResourceKind>(k);
        EXPECT_EQ(node.capability(kind), m.capability(kind)) << spec.name << " " << k;
      }
      node.cpu().set_capacity_scale(0.4);
      node.gpus().try_acquire();
      executors.back()->cache().put("block", 3.0 * kGiB);
    }
  }
}

/// Every delivered beat, per node, in delivery order.
struct BeatLog {
  std::vector<std::vector<SimTime>> times;
  explicit BeatLog(HeartbeatService& hb, const Simulator& sim, std::size_t nodes)
      : times(nodes) {
    hb.subscribe([this, &sim](NodeId node) {
      times[static_cast<std::size_t>(node)].push_back(sim.now());
    });
  }
};

TEST(Heartbeat, DeliversPeriodicallyFromAllNodes) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  BeatLog log(hb, sim, cluster.size());
  hb.start();
  hb.watch_all(true);
  sim.run(10.0);
  // Node 0's phase is 0, so it beats at t=0,1,...,10 (11 beats); the rest
  // land strictly inside the window (10 beats).
  for (const auto& beats : log.times) {
    EXPECT_GE(beats.size(), 10u);
    EXPECT_LE(beats.size(), 11u);
  }
  auto frozen = log.times;
  hb.stop();
  sim.run(20.0);
  EXPECT_EQ(log.times, frozen);  // no beats after stop
}

// Nothing watched: no instant is an event, yet every node's last beat is
// the grid's latest instant.
TEST(Heartbeat, UnwatchedGridIsArithmeticNotEvents) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  BeatLog log(hb, sim, cluster.size());
  std::size_t before = sim.pending_events();
  hb.start();
  EXPECT_EQ(sim.pending_events(), before);
  EXPECT_EQ(hb.queue_entries(), 0u);
  sim.run(9.99);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    EXPECT_TRUE(log.times[i].empty());
    SimTime expect = 1.0 * static_cast<double>(i) / static_cast<double>(cluster.size());
    while (expect + 1.0 < 9.99) expect += 1.0;
    ASSERT_TRUE(hb.last_beat(id).has_value());
    EXPECT_EQ(*hb.last_beat(id), expect) << "node " << i;
  }
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Heartbeat, StaggeredNotSimultaneous) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  std::vector<SimTime> times;
  hb.subscribe([&](NodeId) { times.push_back(sim.now()); });
  hb.start();
  hb.watch_all(true);
  sim.run(0.999);
  ASSERT_EQ(times.size(), 12u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
}

TEST(Heartbeat, RejectsBadPeriod) {
  Simulator sim;
  Cluster cluster(sim);
  EXPECT_THROW(HeartbeatService(cluster, 0.0), std::invalid_argument);
}

TEST(Heartbeat, QueueEntriesCountPendingDeliveries) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  hb.start();
  hb.watch(3);
  hb.watch(3);  // watches nest
  hb.watch(7);
  EXPECT_EQ(hb.queue_entries(), 2u);
  sim.run(5.5);
  EXPECT_EQ(hb.queue_entries(), 2u);
  hb.unwatch(3);
  EXPECT_EQ(hb.queue_entries(), 2u);
  hb.unwatch(3);
  hb.unwatch(7);
  EXPECT_EQ(hb.queue_entries(), 0u);
  EXPECT_THROW(hb.unwatch(7), std::logic_error);
  hb.stop();
  EXPECT_EQ(hb.queue_entries(), 0u);
}

// The grid's instants are a re-armed timer's: t0 + phase, then repeated
// += period, bit for bit (t0 + phase + k*period differs in the last bits
// at about one instant in six). Every phase of a 1000-node fleet over
// 3,000 periods, plus golden-ratio joiners entering mid-run.
TEST(Heartbeat, GridMatchesRepeatedAddition) {
  constexpr std::size_t kNodes = 1000;
  constexpr std::size_t kJoiners = 8;
  constexpr SimTime kPeriod = 1.0;
  constexpr SimTime kHorizon = 3000.0;
  Simulator sim;
  Cluster cluster(sim);
  for (std::size_t i = 0; i < kNodes; ++i) cluster.add_node(thor_spec());
  HeartbeatService hb(cluster, kPeriod);
  cluster.subscribe_membership([&](NodeId id, NodeLifecycle s) {
    if (s == NodeLifecycle::kLive) hb.node_joined(id);
  });
  std::vector<SimTime> expect(kNodes + kJoiners, Simulator::kForever);
  std::size_t beats = 0;
  std::size_t mismatches = 0;
  hb.subscribe([&](NodeId node) {
    auto i = static_cast<std::size_t>(node);
    if (sim.now() != expect[i] && mismatches++ < 5) {
      ADD_FAILURE() << "node " << i << " beat at " << sim.now() << ", expected " << expect[i];
    }
    expect[i] += kPeriod;
    ++beats;
  });
  for (std::size_t i = 0; i < kNodes; ++i) {
    expect[i] = kPeriod * static_cast<double>(i) / static_cast<double>(kNodes);
  }
  hb.start();
  hb.watch_all(true);
  for (std::size_t j = 0; j < kJoiners; ++j) {
    SimTime boot = 17.3 * static_cast<double>(j + 1);
    sim.schedule_at(boot - 5.0, [&cluster] { cluster.provision_node(thor_spec(), 5.0); });
    // The joiner's phase: a golden-ratio stagger of its id.
    double frac = static_cast<double>(kNodes + j) * 0.61803398874989485;
    frac -= std::floor(frac);
    expect[kNodes + j] = (boot - 5.0 + 5.0) + kPeriod * frac;
  }
  sim.run(kHorizon);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(beats, kNodes * 3000);
  // Queried with nothing delivered, the grid folds to the same instants.
  hb.watch_all(false);
  sim.run(kHorizon + 10.0);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SimTime last = expect[i] - kPeriod;
    for (SimTime t = expect[i]; t < sim.now(); t += kPeriod) last = t;
    ASSERT_TRUE(hb.last_beat(static_cast<NodeId>(i)).has_value());
    EXPECT_EQ(*hb.last_beat(static_cast<NodeId>(i)), last) << "node " << i;
  }
}

// A silence (offline or dropped) is folded, not fired: the node's last
// beat stops at its last audible instant, and exactly one beat — the first
// audible instant after the silence — is delivered to say it is back.
TEST(Heartbeat, SilenceEndsWithOneDeliveredBeat) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  BeatLog log(hb, sim, cluster.size());
  hb.start();
  const NodeId dropped = 6;  // phase 0.5
  const NodeId crashed = 3;  // phase 0.25
  std::optional<SimTime> during_drop;
  std::optional<SimTime> during_crash;
  sim.schedule_at(2.7, [&] { hb.set_dropped(dropped, true); });
  sim.schedule_at(5.0, [&] {
    during_drop = hb.last_beat(dropped);
    hb.set_dropped(dropped, false);
  });
  sim.schedule_at(3.0, [&] { cluster.node(crashed).set_online(false); });
  sim.schedule_at(8.25, [&] {
    during_crash = hb.last_beat(crashed);
    cluster.node(crashed).set_online(true);  // posted before the 8.25 beat
  });
  sim.run(12.0);
  EXPECT_EQ(during_drop, 2.5);
  EXPECT_EQ(during_crash, 2.25);
  EXPECT_EQ(log.times[static_cast<std::size_t>(dropped)], std::vector<SimTime>{5.5});
  EXPECT_EQ(log.times[static_cast<std::size_t>(crashed)], std::vector<SimTime>{8.25});
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i != static_cast<std::size_t>(dropped) && i != static_cast<std::size_t>(crashed)) {
      EXPECT_TRUE(log.times[i].empty()) << "node " << i;
    }
  }
  EXPECT_EQ(hb.last_beat(dropped), 11.5);
  EXPECT_EQ(hb.last_beat(crashed), 11.25);
}

// Same-time ties: a delivered beat at instant g keeps the queue position
// of a timer re-armed at the node's previous instant g - period. Events
// scheduled up to then run before it, later ones after it; a query at g
// counts the beat as past exactly when it runs after it.
TEST(Heartbeat, DeliveredBeatKeepsTheRearmedTimerPosition) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  HeartbeatService hb(cluster, 1.0);
  std::vector<std::string> order;
  std::vector<std::optional<SimTime>> seen;
  hb.subscribe([&](NodeId node) {
    if (node == 0) order.push_back("beat");
  });
  auto probe = [&](const char* name) {
    order.push_back(name);
    seen.push_back(hb.last_beat(0));
  };
  // The first instant (phase 0: the entry time) keeps the place of a
  // timer armed at start(): after what was scheduled before, before what
  // is scheduled after.
  sim.schedule_at(0.0, [&] { probe("before_start"); });
  hb.start();
  sim.schedule_at(0.0, [&] { probe("after_start"); });
  sim.schedule_at(5.0, [&] {
    probe("early");  // posted at 0: before the beat at 5
    sim.schedule_at(5.0, [&] { probe("now"); });
  });
  sim.schedule_at(3.5, [&] {
    hb.watch(0);  // deliver node 0's beats from 4.0 on
    sim.schedule_at(5.0, [&] { probe("late"); });
  });
  sim.schedule_at(4.0, [&] { sim.schedule_at(5.0, [&] { probe("at_prev"); }); });
  sim.schedule_at(4.5, [&] { sim.schedule_at(5.0, [&] { probe("after_prev"); }); });
  sim.run(5.0);
  // "late" (scheduled at 3.5) and "at_prev" (at 4.0, the previous instant
  // itself) precede the beat; "after_prev" (4.5) and "now" (5.0) follow it.
  EXPECT_EQ(order, (std::vector<std::string>{"before_start", "after_start", "beat", "early",
                                             "late", "at_prev", "beat", "after_prev", "now"}));
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen[0], std::nullopt);
  EXPECT_EQ(seen[1], 0.0);
  EXPECT_EQ(seen[2], 4.0);
  EXPECT_EQ(seen[3], 4.0);
  EXPECT_EQ(seen[4], 4.0);
  EXPECT_EQ(seen[5], 5.0);
  EXPECT_EQ(seen[6], 5.0);
}

}  // namespace
}  // namespace rupam
