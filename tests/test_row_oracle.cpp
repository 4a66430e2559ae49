// Row-index oracle. RUPAM's resource queues are kept across dispatch
// rounds (TaskManager + QueueRowIndex) and touched only where something
// changed. With the oracle seam on, every any_live and Algorithm 2 pick a
// round makes is made again over a snapshot built from scratch, the way
// the rows were once rebuilt every round: each queued task of a pending
// state, its lock read from DB_task_char, its localities from its spec and
// the block locations. Every scenario here must find no disagreement, and
// must actually compare picks.
//
// Also here: RUPAM's kind-visits share one straggler walk per round.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "app/arrivals.hpp"
#include "app/simulation.hpp"
#include "cluster/fleet.hpp"
#include "cluster/presets.hpp"
#include "common/log.hpp"
#include "faults/fault_plan.hpp"
#include "sched/rupam/rupam_scheduler.hpp"
#include "sweep/sweep_spec.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

/// Silences the executor-loss and fault warnings the runs print.
struct QuietLog {
  LogLevel saved = Logger::level();
  QuietLog() { Logger::set_level(LogLevel::kError); }
  ~QuietLog() { Logger::set_level(saved); }
};

struct OracleResult {
  std::size_t mismatches = 0;
  std::size_t checks = 0;
  std::size_t rounds = 0;
  std::size_t straggler_walks = 0;
};

OracleResult result_of(Simulation& sim) {
  RupamScheduler* rupam = sim.rupam_scheduler();
  return {rupam->row_oracle_mismatches(), rupam->row_oracle_checks(),
          sim.scheduler().dispatch_rounds(), sim.scheduler().dispatch_work().straggler_walks};
}

/// One Table III workload on the 12-node Hydra preset at seed 1 under
/// RUPAM, the oracle on.
OracleResult run_hydra(const char* workload,
                       const std::function<void(SimulationConfig&)>& tweak = {}) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  if (tweak) tweak(cfg);
  Simulation sim(cfg);
  sim.rupam_scheduler()->set_row_oracle(true);
  Application app = build_workload(workload_preset(workload), sim.cluster().node_ids(),
                                   /*seed=*/1, /*iterations_override=*/0,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  return result_of(sim);
}

OracleResult run_stream(SimulationConfig cfg, const ArrivalConfig& arrivals) {
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.pools.policy = PoolPolicy::kFair;
  Simulation sim(cfg);
  sim.rupam_scheduler()->set_row_oracle(true);
  sim.run(make_poisson_stream(arrivals, sim.cluster().node_ids()));
  return result_of(sim);
}

void expect_agrees(const OracleResult& r, const std::string& label) {
  EXPECT_EQ(r.mismatches, 0u) << label << ": " << r.mismatches << " of " << r.checks;
  EXPECT_GT(r.checks, 0u) << label << ": the oracle compared nothing";
}

// The DispatchPins cells: GPU race (GM, KMeans), DB locks and
// PROCESS_LOCAL rows (LR, KMeans), memory guard and relocation (PR), and
// each ablation toggle on LR.
TEST(RowOracle, DispatchPinCells) {
  QuietLog quiet;
  for (const char* workload : {"GM", "LR", "KMeans", "PR"}) {
    expect_agrees(run_hydra(workload), std::string("RUPAM ") + workload);
  }
  for (bool RupamConfig::*flag :
       {&RupamConfig::opt_executor_lock, &RupamConfig::memory_guard, &RupamConfig::gpu_cpu_race,
        &RupamConfig::overcommit}) {
    expect_agrees(run_hydra("LR", [&](SimulationConfig& cfg) { cfg.rupam.*flag = false; }),
                  "RUPAM LR ablation");
  }
}

// Chaos plans crash, drop beats, slow and blacklist nodes: failures,
// retry backoffs, relocations and resubmitted partitions all move rows.
TEST(RowOracle, ChaosRunsAgree) {
  QuietLog quiet;
  for (std::uint64_t chaos = 1; chaos <= 6; ++chaos) {
    expect_agrees(run_hydra("LR", [&](SimulationConfig& cfg) { cfg.chaos_seed = chaos; }),
                  "LR --chaos " + std::to_string(chaos));
  }
}

// FAIR pools: the rows are bucketed per pool and tried in fair order.
TEST(RowOracle, FairTwoTenantStreamsAgree) {
  QuietLog quiet;
  ArrivalConfig pinned;  // DispatchPins.RupamFairTwoTenantStream
  pinned.rate = 0.2;
  pinned.duration = 60.0;
  pinned.tenants = 2;
  pinned.seed = 5;
  pinned.iterations_override = 1;
  pinned.mix = {"LR", "GM", "TeraSort"};
  pinned.max_apps = 4;
  expect_agrees(run_stream({}, pinned), "LR/GM/TeraSort stream");
  ArrivalConfig gm;  // the GM stream of CliPins.MultiTenantElasticChaos
  gm.rate = 0.05;
  gm.duration = 60.0;
  gm.tenants = 2;
  gm.seed = 1;
  gm.mix = {"GM"};
  expect_agrees(run_stream({}, gm), "GM stream");
}

// One tenant_sweep cell of the faulted, elastic kind: spot revocation,
// a crash and a slowdown, autoscaled nodes joining and draining, and
// fair-share preemption.
TEST(RowOracle, TenantSweepFaultedElasticCellAgrees) {
  QuietLog quiet;
  SimulationConfig cfg;
  FleetSpec fleet = sweep_fleet_spec(12, /*base_seed=*/7);
  cfg.nodes = generate_fleet(fleet);
  if (fleet.switch_bandwidth > 0.0) cfg.switch_bandwidth = fleet.switch_bandwidth;
  cfg.faults = parse_fault_spec(
      "spot@40:node=2:notice=10;crash@60:node=5:down=30;slow@30:node=0:res=cpu:factor=0.5:for=40");
  cfg.autoscale.enabled = true;
  cfg.preemption.enabled = true;
  cfg.seed = 7;
  ArrivalConfig arrivals;
  arrivals.rate = 0.1;
  arrivals.duration = 120.0;
  arrivals.tenants = 2;
  arrivals.seed = 7;
  arrivals.mix = {"TeraSort"};
  arrivals.max_apps = 4;
  expect_agrees(run_stream(cfg, arrivals), "tenant_sweep cell");
}

TaskSpec graft_task(TaskId id, NodeId preferred) {
  TaskSpec t;
  t.id = id;
  t.stage_name = "graft";
  t.partition = static_cast<int>(id);
  t.compute = 4.0 + static_cast<double>(id);
  t.preferred_nodes = {preferred};
  return t;
}

// A resubmission grafts a task into a live stage (its task vector grows
// and may move) and revives a finished one; rows address tasks by stage
// slot and index, so both must be offered like any other.
TEST(RowOracle, ResubmitGraftIntoLiveStageAgrees) {
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  for (int i = 0; i < 3; ++i) cluster.add_node(thor_spec());
  std::vector<std::unique_ptr<Executor>> executors;
  for (NodeId id : cluster.node_ids()) {
    executors.push_back(std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}));
  }
  SchedulerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  RupamScheduler sched(env);
  sched.set_row_oracle(true);
  TaskSet set;
  set.stage_name = "graft";
  for (TaskId id = 0; id < 40; ++id) set.tasks.push_back(graft_task(id, static_cast<NodeId>(id % 3)));
  sched.submit(set);
  while (sched.completed().empty()) sim.run(sim.now() + 0.5);
  TaskSet more;
  more.stage_name = "graft";
  more.tasks = {graft_task(40, 1), graft_task(sched.completed().front().task, 2)};
  sched.resubmit(more);
  sim.run();
  EXPECT_EQ(sched.active_stages(), 0u) << "the stage must drain with its graft";
  EXPECT_EQ(sched.completed().size(), 42u);
  EXPECT_EQ(sched.row_oracle_mismatches(), 0u);
  EXPECT_GT(sched.row_oracle_checks(), 0u);
}

// A block cached while its readers wait in the queues makes them better
// than ANY on that node at once: the busy stage fills the one node's task
// cap, the readers queue behind it, and the block lands before a slot
// frees. The second reader, queued behind the first, wins the node only
// through its cache link.
TEST(RowOracle, CacheAddLinksQueuedReaders) {
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  cluster.add_node(thor_spec());
  Executor executor(sim, cluster.node(0), 0, ExecutorConfig{});
  SchedulerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  RupamScheduler sched(env);
  sched.set_row_oracle(true);
  TaskSet busy;
  busy.stage = 0;
  busy.stage_name = "busy";
  for (TaskId id = 0; id < 20; ++id) {
    TaskSpec t;
    t.id = id;
    t.stage = 0;
    t.stage_name = "busy";
    t.partition = static_cast<int>(id);
    t.compute = 20.0;
    busy.tasks.push_back(t);
  }
  sched.submit(busy);
  sim.run(1.0);
  TaskSet readers;
  readers.stage = 1;
  readers.stage_name = "readers";
  for (TaskId id = 100; id < 102; ++id) {
    TaskSpec t;
    t.id = id;
    t.stage = 1;
    t.stage_name = "readers";
    t.partition = static_cast<int>(id - 100);
    t.compute = 1.0;
    if (id == 101) t.input_cache_key = "blk";
    readers.tasks.push_back(t);
  }
  sched.submit(readers);
  sim.run(2.0);
  ASSERT_EQ(sched.launches(), 16u) << "the node's task cap holds the readers back";
  executor.cache().put("blk", 1.0 * kMiB);
  sim.run();
  EXPECT_EQ(sched.completed().size(), 22u);
  EXPECT_EQ(sched.row_oracle_mismatches(), 0u);
  EXPECT_GT(sched.row_oracle_checks(), 0u);
}

// Every kind-visit of a round reads stragglers from the round's one walk:
// a round walks every active stage at most once.
TEST(RupamStragglers, OneWalkPerRound) {
  QuietLog quiet;
  for (const char* workload : {"GM", "KMeans", "PR"}) {
    OracleResult r = run_hydra(workload);
    EXPECT_GT(r.straggler_walks, 0u) << workload;
    EXPECT_LE(r.straggler_walks, r.rounds) << workload;
  }
}

}  // namespace
}  // namespace rupam
