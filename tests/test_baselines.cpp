// Baseline schedulers: the stage-granular heterogeneity-aware proxy, the
// oblivious FIFO lower bound and HEFT's speculative copies.
#include <gtest/gtest.h>

#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "sched/baselines/capability_scheduler.hpp"
#include "sched/baselines/fifo_scheduler.hpp"
#include "sched/speculation.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

Application small_app(int tasks, double compute, Bytes shuffle_write = 0.0,
                      const std::string& name = "s0") {
  Application app;
  Job job;
  job.id = 0;
  Stage stage;
  stage.id = 0;
  stage.name = name;
  stage.tasks.stage = 0;
  stage.tasks.stage_name = name;
  for (TaskId i = 0; i < tasks; ++i) {
    TaskSpec t;
    t.id = i;
    t.stage = 0;
    t.stage_name = name;
    t.partition = static_cast<int>(i);
    t.compute = compute;
    t.shuffle_write_bytes = shuffle_write;
    t.peak_memory = 128.0 * kMiB;
    stage.tasks.tasks.push_back(t);
  }
  job.stages.push_back(std::move(stage));
  app.jobs.push_back(std::move(job));
  return app;
}

TEST(FifoScheduler, CompletesEverything) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kFifo;
  Simulation sim(cfg);
  Application app = small_app(60, 5.0);
  EXPECT_GT(sim.run(app), 0.0);
  EXPECT_EQ(sim.scheduler().completed().size(), 60u);
  EXPECT_EQ(sim.scheduler().name(), "FIFO");
}

TEST(CapabilityScheduler, CompletesEverything) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kStageAware;
  Simulation sim(cfg);
  Application app = small_app(60, 5.0);
  EXPECT_GT(sim.run(app), 0.0);
  EXPECT_EQ(sim.scheduler().completed().size(), 60u);
  EXPECT_EQ(sim.scheduler().name(), "StageAware");
}

TEST(CapabilityScheduler, DefaultsToCpuAssumption) {
  SchedulerEnv env;
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  std::vector<std::unique_ptr<Executor>> executors;
  for (NodeId id : cluster.node_ids()) {
    executors.push_back(std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}));
  }
  env.sim = &sim;
  env.cluster = &cluster;
  CapabilityScheduler sched(env);
  EXPECT_EQ(sched.stage_bottleneck("never-seen"), ResourceKind::kCpu);
}

TEST(CapabilityScheduler, PrefersFastCpuNodesForComputeStage) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kStageAware;
  Simulation sim(cfg);
  // Few compute-only tasks: the per-core capability ranking should put
  // them on thor (ids 0..5) first.
  Application app = small_app(8, 20.0);
  sim.run(app);
  int on_thor = 0;
  for (const auto& m : sim.scheduler().completed()) {
    on_thor += sim.cluster().node(m.node).spec().node_class == "thor";
  }
  EXPECT_GE(on_thor, 6);
}

// HEFT's speculative copy goes to the cheapest free node that does not
// already run the task. All four tasks land on thor, the cheapest node for
// compute, which keeps free slots; when the long one crosses its stage's
// straggler threshold, its copy must go to hulk in that same round rather
// than wait for thor to fill up.
TEST(HeftScheduler, StragglerCopySkipsItsOwnCheapestNode) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kHeft;
  cfg.nodes = {thor_spec(), hulk_spec()};
  cfg.enable_trace = true;
  Simulation sim(cfg);
  Application app = small_app(4, 1.0);
  app.jobs[0].stages[0].tasks.tasks[3].compute = 50.0;
  sim.run(app);

  std::vector<const TraceEvent*> launches, copies;
  const TraceEvent* straggler = nullptr;
  for (const TraceEvent& e : sim.trace()->events()) {
    if (e.type == TraceEventType::kTaskLaunched) launches.push_back(&e);
    if (e.type == TraceEventType::kTaskLaunched && e.task == 3) straggler = &e;
    if (e.type == TraceEventType::kSpeculativeLaunched) copies.push_back(&e);
  }
  ASSERT_EQ(launches.size(), 4u);
  ASSERT_NE(straggler, nullptr);
  for (const TraceEvent* e : launches) EXPECT_EQ(e->node, 0) << "task " << e->task;
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(copies[0]->task, 3);
  EXPECT_EQ(copies[0]->node, 1);
  // The copy starts in the round the straggler crosses the threshold:
  // 1.5x the median of the three short runtimes after its launch.
  std::vector<double> runtimes;
  for (const TaskMetrics& m : sim.scheduler().completed()) {
    if (m.task != 3) insert_finished_runtime(runtimes, m.run_time());
  }
  ASSERT_EQ(runtimes.size(), 3u);
  SimTime crossing = straggler->time + straggler_threshold(runtimes, 4, SpeculationRule{});
  EXPECT_NEAR(copies[0]->time, crossing, 1e-9);
}

TEST(Baselines, LadderOrderingOnSkewedIterativeWork) {
  // On LR (heavy intra-stage skew, iterative) the expected ladder is
  // FIFO >= Spark and StageAware/RUPAM both complete; RUPAM beats FIFO.
  std::map<SchedulerKind, double> makespan;
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kSpark, SchedulerKind::kStageAware,
                    SchedulerKind::kRupam}) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    Simulation sim(cfg);
    Application app = build_workload(workload_preset("LR"), sim.cluster().node_ids(), 2, 3,
                                     hdfs_placement_weights(sim.cluster()));
    makespan[kind] = sim.run(app);
    EXPECT_EQ(sim.scheduler().completed().size(), app.total_tasks())
        << to_string(kind);
  }
  EXPECT_LT(makespan[SchedulerKind::kRupam], makespan[SchedulerKind::kFifo]);
}

}  // namespace
}  // namespace rupam
