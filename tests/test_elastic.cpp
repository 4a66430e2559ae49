// Elastic-fleet layer: the runtime membership lifecycle (provisioning →
// live → draining → decommissioned), spot revocation, the pending-pressure
// autoscaler, fair-share preemption, diurnal arrivals, and — most
// importantly — the convergence of every subscribed layer (scheduler
// indexes, heartbeat wheel, liveness, sampler) when nodes join or leave
// mid-run. Every suite here is named Elastic* so CI can select the whole
// layer with `ctest -R '^Elastic'`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "app/arrivals.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/fleet.hpp"
#include "cluster/heartbeat.hpp"
#include "cluster/presets.hpp"
#include "fault_invariants.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/utilization_sampler.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

using Transition = std::pair<NodeId, NodeLifecycle>;

// ------------------------------------------------- cluster lifecycle --

TEST(ElasticLifecycle, ProvisionBootsToLiveWithNotifications) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(thor_spec());
  std::vector<Transition> seen;
  cluster.subscribe_membership([&](NodeId id, NodeLifecycle s) { seen.emplace_back(id, s); });

  NodeId id = cluster.provision_node(hulk_spec(), /*boot_delay=*/5.0);
  EXPECT_EQ(id, 1);
  EXPECT_EQ(cluster.lifecycle(id), NodeLifecycle::kProvisioning);
  EXPECT_TRUE(cluster.member(id));
  EXPECT_FALSE(cluster.schedulable(id));
  EXPECT_FALSE(cluster.node(id).online());
  ASSERT_EQ(seen, (std::vector<Transition>{{id, NodeLifecycle::kProvisioning}}));

  sim.run(4.9);
  EXPECT_EQ(cluster.lifecycle(id), NodeLifecycle::kProvisioning);
  sim.run(5.1);
  EXPECT_EQ(cluster.lifecycle(id), NodeLifecycle::kLive);
  EXPECT_TRUE(cluster.schedulable(id));
  EXPECT_TRUE(cluster.node(id).online());
  EXPECT_EQ(seen, (std::vector<Transition>{{id, NodeLifecycle::kProvisioning},
                                           {id, NodeLifecycle::kLive}}));
  EXPECT_EQ(cluster.member_count(), 2u);
}

TEST(ElasticLifecycle, AddNodeIsSilentAndLiveImmediately) {
  Simulator sim;
  Cluster cluster(sim);
  std::vector<Transition> seen;
  cluster.subscribe_membership([&](NodeId id, NodeLifecycle s) { seen.emplace_back(id, s); });
  NodeId id = cluster.add_node(thor_spec());
  // Static fleets built at t=0 must behave exactly as before the
  // lifecycle existed: live at once, no notification traffic.
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(cluster.lifecycle(id), NodeLifecycle::kLive);
  EXPECT_TRUE(cluster.schedulable(id));
}

TEST(ElasticLifecycle, DrainAndDecommissionAreOrderedAndIdempotent) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId a = cluster.add_node(thor_spec());
  NodeId b = cluster.add_node(thor_spec());
  std::vector<Transition> seen;
  cluster.subscribe_membership([&](NodeId id, NodeLifecycle s) { seen.emplace_back(id, s); });

  cluster.begin_drain(a);
  EXPECT_EQ(cluster.lifecycle(a), NodeLifecycle::kDraining);
  EXPECT_TRUE(cluster.member(a));        // still finishing its tasks
  EXPECT_FALSE(cluster.schedulable(a));  // but takes no new work
  cluster.begin_drain(a);                // idempotent: one notification
  ASSERT_EQ(seen.size(), 1u);

  cluster.decommission(a);
  cluster.decommission(a);  // idempotent
  EXPECT_EQ(cluster.lifecycle(a), NodeLifecycle::kDecommissioned);
  EXPECT_FALSE(cluster.member(a));
  EXPECT_EQ(cluster.member_count(), 1u);
  cluster.begin_drain(a);  // decommission is permanent
  EXPECT_EQ(cluster.lifecycle(a), NodeLifecycle::kDecommissioned);
  ASSERT_EQ(seen, (std::vector<Transition>{{a, NodeLifecycle::kDraining},
                                           {a, NodeLifecycle::kDecommissioned}}));

  // Ids are never reused: the next node gets a fresh id past the corpse.
  NodeId c = cluster.add_node(thor_spec());
  EXPECT_EQ(c, 2);
  EXPECT_TRUE(cluster.member(b));
  EXPECT_EQ(cluster.size(), 3u);
}

TEST(ElasticLifecycle, UnsubscribeStopsNotifications) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId a = cluster.add_node(thor_spec());
  int calls = 0;
  std::size_t token = cluster.subscribe_membership([&](NodeId, NodeLifecycle) { ++calls; });
  cluster.begin_drain(a);
  EXPECT_EQ(calls, 1);
  cluster.unsubscribe_membership(token);
  cluster.decommission(a);
  EXPECT_EQ(calls, 1);
}

// Satellite regression: membership-aware queries must reflect the current
// fleet, not the construction-time one.
TEST(ElasticLifecycle, MinMemoryAndClassQueriesTrackMembership) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId thor = cluster.add_node(thor_spec());   // 16 GB
  NodeId hulk = cluster.add_node(hulk_spec());   // 64 GB
  EXPECT_DOUBLE_EQ(cluster.min_node_memory(), thor_spec().memory);
  EXPECT_EQ(cluster.nodes_of_class("thor"), std::vector<NodeId>{thor});

  cluster.decommission(thor);
  EXPECT_DOUBLE_EQ(cluster.min_node_memory(), hulk_spec().memory);
  EXPECT_TRUE(cluster.nodes_of_class("thor").empty());
  EXPECT_EQ(cluster.nodes_of_class("hulk"), std::vector<NodeId>{hulk});

  // A provisioning node is already a member: executor sizing must account
  // for it before it even boots.
  NodeId stack = cluster.provision_node(stack_spec(), 10.0);
  EXPECT_DOUBLE_EQ(cluster.min_node_memory(), stack_spec().memory);
  EXPECT_EQ(cluster.nodes_of_class("stack"), std::vector<NodeId>{stack});
}

TEST(ElasticLifecycle, ProvisionedCostCoversMembershipWindows) {
  Simulator sim;
  Cluster cluster(sim);
  NodeSpec paid = hulk_spec();
  paid.hourly_cost = 1.0;
  NodeId a = cluster.add_node(paid);
  cluster.add_node(paid);
  cluster.add_node(thor_spec());  // hourly_cost 0: on-prem, never billed
  (void)a;

  sim.schedule_at(1800.0, [&] { cluster.decommission(a); });
  sim.run(3600.0);
  // Node a billed for half an hour, node b for the full hour.
  EXPECT_NEAR(cluster.provisioned_cost(sim.now()), 1.5, 1e-9);
  // The bill is frozen at decommission time: advancing the clock only
  // accrues cost for nodes still in the fleet.
  EXPECT_NEAR(cluster.provisioned_cost(7200.0), 2.5, 1e-9);
}

// ---------------------------------------------------- heartbeat wheel --

struct HeartbeatHarness {
  Simulator sim;
  Cluster cluster{sim};
  HeartbeatService hb{cluster, 1.0};
  std::map<NodeId, std::vector<SimTime>> beats;

  HeartbeatHarness() {
    cluster.add_node(thor_spec());
    cluster.add_node(thor_spec());
    hb.subscribe([this](NodeId node) { beats[node].push_back(sim.now()); });
    // Mirror Simulation's membership wiring at unit level.
    cluster.subscribe_membership([this](NodeId id, NodeLifecycle s) {
      if (s == NodeLifecycle::kLive) hb.node_joined(id);
      if (s == NodeLifecycle::kDecommissioned) hb.node_left(id);
    });
  }
};

TEST(ElasticHeartbeat, JoinerBeatsAfterBootWithoutShiftingOthers) {
  HeartbeatHarness h;
  h.hb.start();
  h.sim.run(5.5);
  std::size_t before = h.beats[0].size();
  ASSERT_GE(before, 5u);
  EXPECT_TRUE(h.beats.find(2) == h.beats.end());

  NodeId joined = h.cluster.provision_node(hulk_spec(), /*boot_delay=*/2.0);
  h.sim.run(7.4);
  // Still provisioning (offline): no wheel entry, no beats.
  EXPECT_TRUE(h.beats.find(joined) == h.beats.end());
  h.sim.run(12.5);
  EXPECT_TRUE(h.hb.beating(joined));
  ASSERT_FALSE(h.beats[joined].empty());
  EXPECT_GE(h.beats[joined].front(), 7.5);  // first beat after going live

  // The incumbent nodes' cadence is untouched by the join: still exactly
  // one beat per period.
  EXPECT_EQ(h.beats[0].size(), before + 7);
  // All wheel entries share one kernel queue slot.
  EXPECT_EQ(h.hb.queue_entries(), 1u);
}

// Satellite: a decommissioned node's wheel entry is retired for good — no
// ghost beats, not even silent cycles that would keep the slot occupied.
TEST(ElasticHeartbeat, RetiredNodeNeverBeatsAgain) {
  HeartbeatHarness h;
  h.hb.start();
  h.sim.run(4.5);
  std::size_t before = h.beats[1].size();
  ASSERT_GT(before, 0u);

  h.cluster.decommission(1);
  EXPECT_FALSE(h.hb.beating(1));
  h.sim.run(20.0);
  EXPECT_EQ(h.beats[1].size(), before) << "ghost beats from a decommissioned node";
  EXPECT_TRUE(h.hb.beating(0));
  // node_left is idempotent and safe on already-retired ids.
  h.hb.node_left(1);
  EXPECT_FALSE(h.hb.beating(1));
}

// ------------------------------------------------- utilization sampler --

struct SamplerHarness {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<UtilizationSampler> sampler;

  // The sampler snapshots the fleet at construction (like Simulation
  // does), so the static nodes must exist before it is built.
  explicit SamplerHarness(std::size_t static_nodes = 1) {
    for (std::size_t i = 0; i < static_nodes; ++i) cluster.add_node(thor_spec());
    sampler = std::make_unique<UtilizationSampler>(cluster, 1.0);
    cluster.subscribe_membership([this](NodeId id, NodeLifecycle s) {
      if (s == NodeLifecycle::kLive) sampler->node_joined(id);
      if (s == NodeLifecycle::kDecommissioned) sampler->node_left(id);
    });
  }
};

TEST(ElasticSampler, MidRunJoinStartsSeriesAtJoinInstant) {
  SamplerHarness h;
  h.sampler->start();
  h.sim.run(5.0);
  EXPECT_GE(h.sampler->cpu_util(0).size(), 4u);

  NodeId joined = h.cluster.provision_node(hulk_spec(), /*boot_delay=*/2.0);
  h.sim.run(6.5);  // provisioning: no series allocated, not sampled
  EXPECT_FALSE(h.sampler->sampling(joined));
  EXPECT_THROW(h.sampler->cpu_util(joined), std::out_of_range);

  h.sim.run(12.0);
  EXPECT_TRUE(h.sampler->sampling(joined));
  const TimeSeries& cpu = h.sampler->cpu_util(joined);
  ASSERT_FALSE(cpu.empty());
  // No retroactive zeros: the series starts at the join instant (t=7).
  EXPECT_GE(cpu.points().front().time, 7.0);
}

TEST(ElasticSampler, DecommissionEndsSeriesAtLeaveInstant) {
  SamplerHarness h(2);
  NodeId b = 1;
  h.sampler->start();
  h.sim.run(5.0);
  ASSERT_TRUE(h.sampler->sampling(b));
  h.cluster.decommission(b);
  EXPECT_FALSE(h.sampler->sampling(b));
  std::size_t frozen = h.sampler->cpu_util(b).size();
  h.sim.run(15.0);
  // The series simply ends: averages cover the membership window only.
  EXPECT_EQ(h.sampler->cpu_util(b).size(), frozen);
  EXPECT_GT(h.sampler->cpu_util(0).size(), frozen);
  // Stale ids stay safe.
  h.sampler->node_left(b);
  EXPECT_THROW(h.sampler->node_joined(99), std::out_of_range);
}

// -------------------------------------------- scheduler index hygiene --

class ProbeScheduler : public SchedulerBase {
 public:
  using SchedulerBase::note_node_failure;
  using SchedulerBase::SchedulerBase;
  std::string name() const override { return "probe"; }

 protected:
  void try_dispatch() override {}
};

struct SchedulerHarness {
  Simulator sim;
  Cluster cluster{sim};
  Rng rng{1};
  std::vector<std::unique_ptr<Executor>> executors;
  std::unique_ptr<ProbeScheduler> sched;

  explicit SchedulerHarness(std::size_t nodes = 3) {
    for (std::size_t i = 0; i < nodes; ++i) cluster.add_node(thor_spec());
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(
          std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
      env.executors.push_back(executors.back().get());
    }
    sched = std::make_unique<ProbeScheduler>(env);
  }

  NodeId provision(SimTime boot_delay) {
    NodeId id = cluster.provision_node(thor_spec(), boot_delay);
    executors.push_back(
        std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
    sched->register_executor(executors.back().get());
    return id;
  }
};

// Satellite: a node that is blacklisted and then spot-revoked must not be
// resurrected when the blacklist timer would have expired.
TEST(ElasticScheduler, DecommissionedNodeIsNeverResurrectedByUnblacklist) {
  SchedulerHarness h;
  FaultToleranceConfig ft;
  ft.enabled = true;
  h.sched->configure_fault_tolerance(ft);

  for (int i = 0; i < 3; ++i) h.sched->note_node_failure(1);
  ASSERT_TRUE(h.sched->node_blacklisted(1));

  // Spot reclaim lands while the node is blacklisted.
  h.cluster.decommission(1);
  EXPECT_FALSE(h.sched->node_usable(1));
  // The blacklist entry is purged with the membership — so the timed
  // un-blacklist sweep never fires for it...
  EXPECT_FALSE(h.sched->node_blacklisted(1));

  h.sim.schedule_at(130.0, [] {});
  while (h.sim.step()) {
  }
  // ...and past the would-be expiry the node stays unusable: membership,
  // not the blacklist clock, owns the answer now.
  EXPECT_FALSE(h.sched->node_usable(1));
  EXPECT_EQ(h.sched->unblacklist_events(), 0u);
  EXPECT_TRUE(h.sched->node_usable(0));
  EXPECT_TRUE(h.sched->node_usable(2));
}

TEST(ElasticScheduler, FreeSlotsCountOnlySchedulableNodes) {
  SchedulerHarness h(2);
  int per_node = h.executors[0]->free_slots();
  ASSERT_GT(per_node, 0);
  EXPECT_EQ(h.sched->free_slots_total(), 2 * per_node);

  // A provisioning node contributes nothing until it boots...
  NodeId late = h.provision(/*boot_delay=*/5.0);
  EXPECT_EQ(h.sched->free_slots_total(), 2 * per_node);
  h.sim.run(6.0);
  EXPECT_EQ(h.sched->free_slots_total(), 3 * per_node);

  // ...a draining node stops counting immediately...
  h.cluster.begin_drain(late);
  EXPECT_EQ(h.sched->free_slots_total(), 2 * per_node);

  // ...and decommission removes it for good.
  h.cluster.decommission(late);
  EXPECT_EQ(h.sched->free_slots_total(), 2 * per_node);
  EXPECT_FALSE(h.sched->node_usable(late));
}

TEST(ElasticScheduler, RegisterExecutorEnforcesNodeIdOrder) {
  SchedulerHarness h(2);
  NodeId a = h.cluster.provision_node(thor_spec(), 1.0);
  NodeId b = h.cluster.provision_node(thor_spec(), 1.0);
  ASSERT_EQ(b, a + 1);
  Rng rng(9);
  Executor wrong(h.sim, h.cluster.node(b), b, ExecutorConfig{}, rng.split());
  EXPECT_THROW(h.sched->register_executor(&wrong), std::invalid_argument);
  EXPECT_THROW(h.sched->register_executor(nullptr), std::invalid_argument);
  Executor right(h.sim, h.cluster.node(a), a, ExecutorConfig{}, rng.split());
  h.sched->register_executor(&right);  // in order: fine
}

// ------------------------------------------------------- autoscaler --

NodeClassMix burst_mix() {
  NodeClassMix mix;
  mix.name = "burst";
  mix.count = 0;  // count is a static-fleet knob; the autoscaler mints on demand
  mix.base = hulk_spec();
  mix.base.hourly_cost = 1.0;
  mix.cpu_jitter = 0.05;
  return mix;
}

AutoscaleConfig fast_autoscale() {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.interval = 1.0;
  cfg.scale_up_pressure = 2.0;
  cfg.scale_up_step = 1;
  cfg.boot_delay = 2.0;
  cfg.idle_drain_after = 5.0;
  cfg.max_nodes = 3;
  cfg.seed = 7;
  return cfg;
}

struct AutoscalerHarness {
  Simulator sim;
  Cluster cluster{sim};
  NodeId base;
  std::size_t pending = 0;
  std::map<NodeId, int> running;
  std::unique_ptr<Autoscaler> scaler;

  explicit AutoscalerHarness(AutoscaleConfig cfg = fast_autoscale()) {
    base = cluster.add_node(thor_spec());
    AutoscalerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    env.mix = burst_mix();
    env.pending_tasks = [this] { return pending; };
    env.free_slots = [] { return 0; };
    env.node_running = [this](NodeId id) {
      auto it = running.find(id);
      return it == running.end() ? 0 : it->second;
    };
    env.provision = [this](NodeSpec spec, SimTime boot) {
      return cluster.provision_node(std::move(spec), boot);
    };
    scaler = std::make_unique<Autoscaler>(std::move(env), cfg);
  }
};

TEST(ElasticAutoscaler, ValidatesEnvAndConfig) {
  Simulator sim;
  Cluster cluster(sim);
  AutoscalerEnv env;  // everything null/missing
  EXPECT_THROW(Autoscaler(env, fast_autoscale()), std::invalid_argument);

  AutoscalerHarness ok;
  AutoscaleConfig bad = fast_autoscale();
  bad.interval = 0.0;
  {
    AutoscalerHarness h;  // valid env to test config checks in isolation
    AutoscalerEnv env2;
    env2.sim = &h.sim;
    env2.cluster = &h.cluster;
    env2.mix = burst_mix();
    env2.pending_tasks = [] { return std::size_t{0}; };
    env2.free_slots = [] { return 0; };
    env2.node_running = [](NodeId) { return 0; };
    env2.provision = [&h](NodeSpec spec, SimTime boot) {
      return h.cluster.provision_node(std::move(spec), boot);
    };
    EXPECT_THROW(Autoscaler(env2, bad), std::invalid_argument);
    bad = fast_autoscale();
    bad.scale_up_step = 0;
    EXPECT_THROW(Autoscaler(env2, bad), std::invalid_argument);
    AutoscalerEnv unnamed = env2;
    unnamed.mix.name.clear();
    EXPECT_THROW(Autoscaler(unnamed, fast_autoscale()), std::invalid_argument);
  }

  ok.scaler->start();
  EXPECT_THROW(ok.scaler->start(), std::logic_error);  // double start
}

TEST(ElasticAutoscaler, ScalesUpUnderBacklogAndRespectsMaxNodes) {
  AutoscalerHarness h;
  h.pending = 10;
  h.scaler->start();
  h.sim.run(10.0);

  EXPECT_EQ(h.scaler->scale_ups(), 3u);  // capped at max_nodes
  EXPECT_EQ(h.scaler->owned_alive(), 3u);
  ASSERT_EQ(h.scaler->minted().size(), 3u);
  EXPECT_EQ(h.cluster.member_count(), 4u);
  for (std::size_t i = 0; i < h.scaler->minted().size(); ++i) {
    NodeId id = h.scaler->minted()[i];
    EXPECT_EQ(h.cluster.lifecycle(id), NodeLifecycle::kLive);
    const NodeSpec& spec = h.cluster.node(id).spec();
    EXPECT_EQ(spec.node_class, "burst");
    // Minted nodes continue the class numbering: burst1, burst2, ...
    EXPECT_EQ(spec.name, "burst" + std::to_string(i + 1));
    EXPECT_DOUBLE_EQ(spec.hourly_cost, 1.0);
  }
  // Pressure persists but the cap holds.
  h.sim.run(20.0);
  EXPECT_EQ(h.scaler->scale_ups(), 3u);
}

TEST(ElasticAutoscaler, DrainsIdleNodesLifoAndReapsThem) {
  AutoscalerHarness h;
  h.pending = 10;
  h.scaler->start();
  h.sim.run(10.0);
  ASSERT_EQ(h.scaler->owned_alive(), 3u);
  std::vector<NodeId> drained;
  h.cluster.subscribe_membership([&](NodeId id, NodeLifecycle s) {
    if (s == NodeLifecycle::kDraining) drained.push_back(id);
  });

  h.pending = 0;  // trough: everything minted is now idle
  h.sim.run(40.0);
  EXPECT_EQ(h.scaler->scale_downs(), 3u);
  EXPECT_EQ(h.scaler->owned_alive(), 0u);
  for (NodeId id : h.scaler->minted()) {
    EXPECT_EQ(h.cluster.lifecycle(id), NodeLifecycle::kDecommissioned);
  }
  // Newest-first: the drain order is the mint order reversed.
  std::vector<NodeId> expect(h.scaler->minted().rbegin(), h.scaler->minted().rend());
  EXPECT_EQ(drained, expect);
  // The base fleet is untouchable.
  EXPECT_EQ(h.cluster.lifecycle(h.base), NodeLifecycle::kLive);
}

TEST(ElasticAutoscaler, BusyMintedNodeIsNotDrained) {
  AutoscalerHarness h;
  h.pending = 10;
  h.scaler->start();
  h.sim.run(10.0);
  ASSERT_EQ(h.scaler->minted().size(), 3u);
  NodeId busy = h.scaler->minted().front();
  h.running[busy] = 2;
  h.pending = 0;
  h.sim.run(40.0);
  // The two idle nodes went; the busy one survives with its work.
  EXPECT_EQ(h.scaler->owned_alive(), 1u);
  EXPECT_EQ(h.cluster.lifecycle(busy), NodeLifecycle::kLive);

  h.running[busy] = 0;  // its last task finishes
  h.sim.run(55.0);
  EXPECT_EQ(h.scaler->owned_alive(), 0u);
  EXPECT_EQ(h.cluster.lifecycle(busy), NodeLifecycle::kDecommissioned);
}

TEST(ElasticAutoscaler, MintedSpecsAreDeterministicAcrossRuns) {
  auto mint_three = [](std::vector<NodeSpec>& out) {
    AutoscalerHarness h;
    h.pending = 10;
    h.scaler->start();
    h.sim.run(10.0);
    for (NodeId id : h.scaler->minted()) out.push_back(h.cluster.node(id).spec());
  };
  std::vector<NodeSpec> a, b;
  mint_three(a);
  mint_three(b);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].cpu_perf, b[i].cpu_perf);
    EXPECT_DOUBLE_EQ(a[i].cpu_ghz, b[i].cpu_ghz);
    EXPECT_DOUBLE_EQ(a[i].memory, b[i].memory);
  }
  // Jitter is real: not every minted node is a carbon copy of the base.
  bool varied = false;
  for (const NodeSpec& s : a) varied = varied || s.cpu_perf != hulk_spec().cpu_perf;
  EXPECT_TRUE(varied);
}

// ------------------------------------------------------ spot revocation --

TEST(ElasticSpot, SpecParsesDescribesAndValidates) {
  FaultPlan plan = parse_fault_spec("spot@15:node=2:notice=5");
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kSpotRevoke);
  EXPECT_DOUBLE_EQ(plan.events[0].time, 15.0);
  EXPECT_EQ(plan.events[0].node, 2);
  EXPECT_DOUBLE_EQ(plan.events[0].duration, 5.0);
  plan.validate(12);
  EXPECT_NE(plan.events[0].describe().find("spot"), std::string::npos);
  EXPECT_THROW(parse_fault_spec("spot@15"), std::invalid_argument);  // no node
}

TEST(ElasticSpot, RevocationDrainsThenPermanentlyDecommissions) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_trace = true;
  cfg.faults = parse_fault_spec("spot@14:node=2:notice=4");
  Simulation sim(cfg);

  NodeLifecycle during_notice = NodeLifecycle::kLive;
  bool alive_during_notice = false;
  sim.sim().schedule_at(16.0, [&] {
    during_notice = sim.cluster().lifecycle(2);
    alive_during_notice = sim.executor(2).alive();
  });

  const WorkloadPreset& preset = workload_preset("TeraSort");
  WorkloadParams params;
  params.input_gb = preset.input_gb / 16.0;
  params.iterations = 1;
  params.seed = 5;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = preset.factory(sim.cluster().node_ids(), params);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 18.0);

  // During the notice window the node drains — no new work, but the
  // executor keeps finishing what it has.
  EXPECT_EQ(during_notice, NodeLifecycle::kDraining);
  EXPECT_TRUE(alive_during_notice);

  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_EQ(sim.injector()->spot_revocations(), 1u);
  EXPECT_EQ(sim.injector()->recoveries(), 0u);  // spot reclaim never recovers
  EXPECT_EQ(sim.cluster().lifecycle(2), NodeLifecycle::kDecommissioned);
  EXPECT_FALSE(sim.executor(2).alive());
  ASSERT_NE(sim.trace(), nullptr);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeDraining), 1u);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeDecommissioned), 1u);
  expect_recovered_completion(sim, app);
}

// --------------------------------------------- mid-run convergence (the
// acceptance test): one node spot-revoked, one provisioned, and every
// subscribed layer must agree on the membership at every probe point.

TEST(ElasticConvergence, MidRunKillAndJoinConvergeAcrossAllLayers) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_trace = true;
  cfg.sample_utilization = true;
  cfg.faults = parse_fault_spec("spot@14:node=2:notice=4");
  Simulation sim(cfg);

  NodeId joined = kInvalidNode;
  sim.sim().schedule_at(8.0, [&] {
    joined = sim.provision_node(hulk_spec(), /*boot_delay=*/4.0);
  });

  struct Probe {
    bool joined_live = false, joined_beating = false, joined_sampled = false;
    bool revoked_member = true, revoked_beating = true, revoked_sampled = true;
    bool revoked_usable = true, revoked_exec_alive = true;
  } at13, at20;
  auto snapshot = [&](Probe& p) {
    p.joined_live = sim.cluster().schedulable(joined);
    p.joined_beating = sim.heartbeats().beating(joined);
    p.joined_sampled = sim.sampler()->sampling(joined);
    p.revoked_member = sim.cluster().member(2);
    p.revoked_beating = sim.heartbeats().beating(2);
    p.revoked_sampled = sim.sampler()->sampling(2);
    p.revoked_usable = sim.scheduler().node_usable(2);
    p.revoked_exec_alive = sim.executor(2).alive();
  };
  sim.sim().schedule_at(13.0, [&] { snapshot(at13); });
  sim.sim().schedule_at(20.0, [&] { snapshot(at20); });

  // Full-size TeraSort: the run must outlast the join (t=12) by enough
  // that the late-joining node demonstrably takes work.
  const WorkloadPreset& preset = workload_preset("TeraSort");
  WorkloadParams params;
  params.input_gb = preset.input_gb;
  params.iterations = 1;
  params.seed = 5;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = preset.factory(sim.cluster().node_ids(), params);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 20.0);
  ASSERT_EQ(joined, 12);

  // t=13: the provisioned node booted (t=12) and every layer admitted it;
  // the doomed node is still a full member.
  EXPECT_TRUE(at13.joined_live);
  EXPECT_TRUE(at13.joined_beating);
  EXPECT_TRUE(at13.joined_sampled);
  EXPECT_TRUE(at13.revoked_member);
  EXPECT_TRUE(at13.revoked_beating);
  EXPECT_TRUE(at13.revoked_usable);

  // t=20: the spot reclaim completed (t=18) and every layer let it go —
  // scheduler indexes, heartbeat wheel, sampler, executor.
  EXPECT_FALSE(at20.revoked_member);
  EXPECT_FALSE(at20.revoked_beating) << "ghost heartbeat-wheel entry";
  EXPECT_FALSE(at20.revoked_sampled);
  EXPECT_FALSE(at20.revoked_usable);
  EXPECT_FALSE(at20.revoked_exec_alive);
  EXPECT_TRUE(at20.joined_live);
  EXPECT_TRUE(at20.joined_beating);

  // The joined node actually worked: completed attempts ran on it.
  std::size_t on_joined = 0;
  for (const TaskMetrics& m : sim.scheduler().completed()) {
    if (m.node == joined) ++on_joined;
  }
  EXPECT_GT(on_joined, 0u);

  ASSERT_NE(sim.trace(), nullptr);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeProvisioned), 1u);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeJoined), 1u);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeDraining), 1u);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kNodeDecommissioned), 1u);
  expect_recovered_completion(sim, app);
}

// ------------------------------------------- end to end: autoscale+preempt --

SimulationConfig elastic_config() {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.seed = 1;
  cfg.pools.policy = PoolPolicy::kFair;

  NodeClassMix base;
  base.name = "base";
  base.count = 4;
  base.base = hulk_spec();
  base.base.hourly_cost = 1.0;
  FleetSpec fleet;
  fleet.name = "elastic-base";
  fleet.seed = 1;
  fleet.classes = {base};
  cfg.nodes = generate_fleet(fleet);

  cfg.autoscale.enabled = true;
  cfg.autoscale.max_nodes = 6;
  cfg.autoscale.scale_up_step = 2;
  cfg.autoscale.boot_delay = 8.0;
  cfg.autoscale.idle_drain_after = 20.0;
  NodeClassMix burst = base;
  burst.name = "burst";
  burst.count = 6;
  cfg.autoscale_class = burst;
  cfg.preemption.enabled = true;
  return cfg;
}

SubmissionStream diurnal_stream(const std::vector<NodeId>& nodes) {
  ArrivalConfig arrivals;
  arrivals.rate = 0.05;
  arrivals.duration = 240.0;
  arrivals.tenants = 3;
  arrivals.seed = 1;
  arrivals.iterations_override = 1;
  arrivals.mix = {"GM", "PR"};
  arrivals.diurnal_amplitude = 1.0;
  arrivals.diurnal_period = 120.0;
  return make_poisson_stream(arrivals, nodes);
}

TEST(ElasticEndToEnd, AutoscaleAndPreemptionEngageAndStayDeterministic) {
  auto run_once = [](SimTime& makespan, std::size_t& ups, std::size_t& downs,
                     std::size_t& preempts, double& cost, std::size_t& jobs) {
    Simulation sim(elastic_config());
    SubmissionStream stream = diurnal_stream(sim.cluster().node_ids());
    TenantRunReport report = sim.run(stream);
    makespan = report.makespan;
    jobs = report.jobs.size();
    ASSERT_NE(sim.autoscaler(), nullptr);
    ups = sim.autoscaler()->scale_ups();
    downs = sim.autoscaler()->scale_downs();
    preempts = sim.scheduler().preemptions();
    cost = sim.cluster().provisioned_cost(sim.sim().now());
  };

  SimTime m1 = 0, m2 = 0;
  std::size_t u1 = 0, u2 = 0, d1 = 0, d2 = 0, p1 = 0, p2 = 0, j1 = 0, j2 = 0;
  double c1 = 0, c2 = 0;
  run_once(m1, u1, d1, p1, c1, j1);
  run_once(m2, u2, d2, p2, c2, j2);

  // The full loop engaged: nodes minted under the waves, drained in the
  // troughs, and the starved pools clawed slots back.
  EXPECT_GT(j1, 0u);
  EXPECT_GT(u1, 0u);
  EXPECT_GT(d1, 0u);
  EXPECT_GT(p1, 0u);
  EXPECT_GT(c1, 0.0);

  // Elastic machinery must not cost determinism.
  EXPECT_DOUBLE_EQ(m1, m2);
  EXPECT_EQ(u1, u2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(p1, p2);
  EXPECT_DOUBLE_EQ(c1, c2);
  EXPECT_EQ(j1, j2);
}

// -------------------------------------------------------- fleet JSON --

TEST(ElasticFleetJson, HourlyCostRoundTripsAndValidates) {
  FleetSpec spec = hydra_fleet_spec();
  spec.classes[0].base.hourly_cost = 0.75;
  FleetSpec back = parse_fleet_json(fleet_to_json(spec));
  ASSERT_EQ(back.classes.size(), spec.classes.size());
  EXPECT_DOUBLE_EQ(back.classes[0].base.hourly_cost, 0.75);
  EXPECT_DOUBLE_EQ(back.classes[1].base.hourly_cost, 0.0);
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    EXPECT_EQ(generate_fleet(back)[0].name, generate_fleet(spec)[0].name);
  }
  spec.classes[0].base.hourly_cost = -1.0;
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(ElasticFleetJson, GenerateNodeMatchesClassNaming) {
  NodeClassMix mix = burst_mix();
  Rng rng(3);
  NodeSpec s = generate_node(mix, rng, 4);
  EXPECT_EQ(s.name, "burst5");  // zero-based index, one-based name
  EXPECT_EQ(s.node_class, "burst");
}

// ---------------------------------------------------- diurnal arrivals --

TEST(ElasticArrivals, DiurnalLoadFollowsTheWaveDeterministically) {
  std::vector<NodeId> nodes{0, 1, 2, 3};
  ArrivalConfig cfg;
  cfg.rate = 0.1;
  cfg.duration = 600.0;
  cfg.tenants = 1;
  cfg.seed = 11;
  cfg.iterations_override = 1;
  cfg.mix = {"KMeans"};
  cfg.diurnal_amplitude = 1.0;
  cfg.diurnal_period = 100.0;

  SubmissionStream a = make_poisson_stream(cfg, nodes);
  SubmissionStream b = make_poisson_stream(cfg, nodes);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 10u);
  std::size_t rising = 0, falling = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SimTime t = a.items()[i].at;
    EXPECT_DOUBLE_EQ(t, b.items()[i].at);
    EXPECT_LE(t, cfg.duration);
    double phase = t / cfg.diurnal_period;
    (phase - std::floor(phase) < 0.5 ? rising : falling) += 1;
  }
  // sin > 0 over the first half-period: the peaks must draw visibly more
  // arrivals than the troughs.
  EXPECT_GT(rising, falling);
}

TEST(ElasticArrivals, RejectsBadDiurnalShape) {
  std::vector<NodeId> nodes{0};
  ArrivalConfig cfg;
  cfg.mix = {"KMeans"};
  cfg.diurnal_amplitude = 1.5;
  EXPECT_THROW(make_poisson_stream(cfg, nodes), std::invalid_argument);
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_period = 0.0;
  EXPECT_THROW(make_poisson_stream(cfg, nodes), std::invalid_argument);
}

// -------------------------------------------------------- sweep axis --

TEST(ElasticSweep, StaticCellsKeepTheirPinnedSeeds) {
  SweepSpec spec;
  spec.base_seed = 99;
  // elastic index 0 (the static default) must reproduce the legacy 4-axis
  // derivation bit for bit — recorded sweeps stay valid.
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t f = 0; f < 2; ++f) {
      CellCoord cell{s, f, 0, 0, 0};
      EXPECT_EQ(derive_run_seed(spec, cell, 3),
                derive_run_seed(spec.base_seed, s, f, 0, 0, 3));
    }
  }
  // Non-default elastic modes fold into the seed and stay distinct.
  CellCoord stat{0, 0, 0, 0, 0}, a{0, 0, 0, 0, 1}, b{0, 0, 0, 0, 2};
  spec.elastic_modes = {"", "autoscale", "autoscale+preempt"};
  std::uint64_t s0 = derive_run_seed(spec, stat, 0);
  std::uint64_t s1 = derive_run_seed(spec, a, 0);
  std::uint64_t s2 = derive_run_seed(spec, b, 0);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s0, s2);
}

TEST(ElasticSweep, ParseElasticModeVocabulary) {
  bool autoscale = true, preempt = true;
  EXPECT_TRUE(parse_elastic_mode("", autoscale, preempt));
  EXPECT_FALSE(autoscale);
  EXPECT_FALSE(preempt);
  EXPECT_TRUE(parse_elastic_mode("autoscale", autoscale, preempt));
  EXPECT_TRUE(autoscale);
  EXPECT_FALSE(preempt);
  EXPECT_TRUE(parse_elastic_mode("preempt", autoscale, preempt));
  EXPECT_FALSE(autoscale);
  EXPECT_TRUE(preempt);
  EXPECT_TRUE(parse_elastic_mode("autoscale+preempt", autoscale, preempt));
  EXPECT_TRUE(autoscale);
  EXPECT_TRUE(preempt);
  EXPECT_FALSE(parse_elastic_mode("turbo", autoscale, preempt));

  SweepSpec spec;
  spec.elastic_modes = {"turbo"};
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(ElasticSweep, SpecJsonRoundTripsElasticAxis) {
  SweepSpec spec;
  spec.elastic_modes = {"", "autoscale+preempt"};
  SweepSpec back = parse_sweep_json(sweep_to_json(spec));
  EXPECT_EQ(back.elastic_modes, spec.elastic_modes);
  EXPECT_EQ(back.cell_count(), spec.cell_count());
  // The axis is innermost: adjacent linear indices differ in elastic only.
  CellCoord c0 = spec.cell_at(0), c1 = spec.cell_at(1);
  EXPECT_EQ(c0.elastic, 0u);
  EXPECT_EQ(c1.elastic, 1u);
  EXPECT_EQ(c0.scheduler, c1.scheduler);
  EXPECT_EQ(spec.cell_index(c1), 1u);
}

TEST(ElasticSweep, ElasticCellsAreByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.base_seed = 7;
  spec.replications = 1;
  spec.schedulers = {SchedulerKind::kRupam};
  spec.fleet_sizes = {12};
  spec.arrival_rates = {0.1};
  spec.fault_plans = {std::string()};
  spec.elastic_modes = {"", "autoscale+preempt"};
  spec.duration = 40.0;
  spec.mix = {"KMeans"};
  spec.max_apps = 2;

  std::string baseline;
  for (int threads : {1, 4}) {
    SweepOptions opts;
    opts.threads = threads;
    std::string json = run_sweep(spec, opts).to_json();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "elastic cells diverged at " << threads << " threads";
    }
  }
  EXPECT_NE(baseline.find("\"elastic\": \"autoscale+preempt\""), std::string::npos);
}

}  // namespace
}  // namespace rupam
