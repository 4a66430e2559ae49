// Integration tests for the RUPAM scheduler: memory guard, dynamic
// executor sizing, over-commit, GPU handling, learning across iterations,
// and straggler relocation.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

Application one_stage_app(std::vector<TaskSpec> tasks, const std::string& name = "s0",
                          StageId stage_id = 0, JobId job_id = 0) {
  Application app;
  Job job;
  job.id = job_id;
  job.name = "job";
  Stage stage;
  stage.id = stage_id;
  stage.name = name;
  stage.tasks.stage = stage_id;
  stage.tasks.stage_name = name;
  for (auto& t : tasks) {
    t.stage = stage_id;
    t.stage_name = name;
    stage.tasks.tasks.push_back(t);
  }
  job.stages.push_back(std::move(stage));
  app.jobs.push_back(std::move(job));
  return app;
}

TaskSpec small_task(TaskId id, double compute = 2.0) {
  TaskSpec t;
  t.id = id;
  t.partition = static_cast<int>(id);
  t.compute = compute;
  t.peak_memory = 128.0 * kMiB;
  return t;
}

TEST(RupamScheduler, RunsAllTasksToCompletion) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 50; ++i) tasks.push_back(small_task(i));
  Application app = one_stage_app(std::move(tasks));
  EXPECT_GT(sim.run(app), 0.0);
  EXPECT_EQ(sim.scheduler().completed().size(), 50u);
}

TEST(RupamScheduler, DynamicExecutorSizing) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  // Per-node heaps: node memory - 2 GiB (paper §III-C2).
  for (NodeId id : sim.cluster().node_ids()) {
    Bytes expected = sim.cluster().node(id).spec().memory - 2.0 * kGiB;
    EXPECT_DOUBLE_EQ(sim.executor(id).heap(), expected);
  }
}

TEST(RupamScheduler, MemoryGuardAvoidsOom) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 60; ++i) {
    TaskSpec t = small_task(i, 10.0);
    t.unmanaged_memory = 2.0 * kGiB;  // kills default Spark on thor nodes
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 60u);
  EXPECT_EQ(sim.total_oom_kills(), 0u);
  EXPECT_EQ(sim.total_executor_losses(), 0u);
}

TEST(RupamScheduler, OverCommitOverlapsMismatchedTasks) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.nodes = {thor_spec()};  // one 8-core node
  cfg.nodes[0].name = "solo";
  Simulation sim(cfg);
  // 8 known CPU-bound tasks + 4 known network-bound tasks. With slot
  // scheduling only 8 run at once; over-commit runs the net tasks too.
  RupamScheduler* rupam = sim.rupam_scheduler();
  ASSERT_NE(rupam, nullptr);
  // Pre-teach the DB so classification is immediate.
  for (int p = 0; p < 8; ++p) {
    TaskMetrics m;
    m.compute_time = 50.0;
    rupam->db().update("cpu-stage", p, m, ResourceKind::kCpu);
  }
  for (int p = 0; p < 4; ++p) {
    TaskMetrics m;
    m.shuffle_read_time = 50.0;
    rupam->db().update("net-stage", p, m, ResourceKind::kNetwork);
  }
  Application app;
  Job job;
  job.id = 0;
  Stage cpu_stage;
  cpu_stage.id = 0;
  cpu_stage.name = "cpu-stage";
  cpu_stage.tasks.stage = 0;
  cpu_stage.tasks.stage_name = "cpu-stage";
  for (TaskId i = 0; i < 8; ++i) {
    TaskSpec t = small_task(i, 30.0);
    t.stage = 0;
    t.stage_name = "cpu-stage";
    cpu_stage.tasks.tasks.push_back(t);
  }
  Stage net_stage;
  net_stage.id = 1;
  net_stage.name = "net-stage";
  net_stage.tasks.stage = 1;
  net_stage.tasks.stage_name = "net-stage";
  for (TaskId i = 8; i < 12; ++i) {
    TaskSpec t = small_task(i, 0.1);
    t.stage = 1;
    t.stage_name = "net-stage";
    t.partition = static_cast<int>(i - 8);
    t.shuffle_read_bytes = 100.0 * kMiB;
    t.shuffle_remote_fraction = 1.0;
    net_stage.tasks.tasks.push_back(t);
  }
  job.stages = {cpu_stage, net_stage};
  app.jobs.push_back(job);

  sim.run(app);
  // The net tasks must have overlapped the CPU wave: their finish time is
  // far below the CPU wave length (30/3.5 ≈ 8.6s each, single wave).
  for (const auto& m : sim.scheduler().completed()) {
    if (m.stage == 1) {
      EXPECT_LT(m.finish_time, 9.0);
    }
  }
}

TEST(RupamScheduler, SlotSemanticsWhenOvercommitDisabled) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.rupam.overcommit = false;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 40; ++i) tasks.push_back(small_task(i));
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 40u);
}

TEST(RupamScheduler, LearnsAcrossIterations) {
  // Per-iteration windows must shrink as DB_task_char warms (Fig 6).
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("LR"), sim.cluster().node_ids(), 3, 6,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  // Gather per-gradient-stage windows in stage order.
  std::map<StageId, std::pair<SimTime, SimTime>> window;
  for (const auto& m : sim.scheduler().completed()) {
    if (m.stage_name != "lr-gradient") continue;
    auto [it, fresh] = window.try_emplace(m.stage, m.launch_time, m.finish_time);
    it->second.first = std::min(it->second.first, m.launch_time);
    it->second.second = std::max(it->second.second, m.finish_time);
  }
  ASSERT_GE(window.size(), 3u);
  std::vector<double> widths;
  for (const auto& [id, w] : window) widths.push_back(w.second - w.first);
  // Warm DB must make at least one later iteration clearly faster than
  // the cold first one (single-run widths fluctuate, so compare the best).
  double best_late = *std::min_element(widths.begin() + 1, widths.end());
  EXPECT_LT(best_late, widths.front() * 0.95);
}

TEST(RupamScheduler, GpuTasksReachDevices) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("KMeans"), sim.cluster().node_ids(), 3, 3,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  std::size_t gpu_runs = 0;
  for (const auto& m : sim.scheduler().completed()) gpu_runs += m.used_gpu;
  EXPECT_GT(gpu_runs, 0u);
}

TEST(RupamScheduler, MemoryStragglerRelocation) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.nodes = {thor_spec(), thor_spec()};
  cfg.nodes[0].name = "a";
  cfg.nodes[1].name = "b";
  cfg.rupam.memory_guard = false;  // let the node overfill, then relocate
  cfg.oom_grace = 30.0;            // pressure resolves slowly: RM acts first
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 10; ++i) {
    TaskSpec t = small_task(i, 60.0);
    t.peak_memory = 0.0;
    t.unmanaged_memory = 3.0 * kGiB;  // 5/node = 15 GiB > 14 GiB heap
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 10u);
  // With two overfilled nodes, RM must have flagged memory stragglers.
  EXPECT_GT(sim.scheduler().relocations(), 0u);
}

TEST(RupamScheduler, FeaturetogglesAreHonored) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.rupam.memory_straggler = false;
  cfg.rupam.gpu_cpu_race = false;
  cfg.rupam.opt_executor_lock = false;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), 3, 1,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().relocations(), 0u);
  EXPECT_EQ(sim.rupam_scheduler()->gpu_races(), 0u);
}

TEST(RupamScheduler, DbClearedBetweenFreshSimulations) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation a(cfg);
  EXPECT_EQ(a.rupam_scheduler()->db().size(), 0u);
  Application app = build_workload(workload_preset("PR"), a.cluster().node_ids(), 3, 1,
                                   hdfs_placement_weights(a.cluster()));
  a.run(app);
  EXPECT_GT(a.rupam_scheduler()->db().size(), 0u);
  Simulation b(cfg);
  EXPECT_EQ(b.rupam_scheduler()->db().size(), 0u);
}

/// One RUPAM run of PR on Hydra in which `node`'s heartbeats are swallowed
/// over [from, from + span): the node's beat times and the times of every
/// launch that landed on it. With `fault_tolerance` the silence comes from
/// an hbdrop fault plan (which turns fault tolerance on) and the liveness
/// sweep runs only every 5 s, so it lags the missed-heartbeat deadline;
/// without, the heartbeat service drops the beats directly and fault
/// tolerance stays off.
struct SilentNodeRun {
  std::vector<SimTime> beats;
  std::vector<SimTime> launches;
};

SilentNodeRun run_with_silent_node(bool fault_tolerance, NodeId node, SimTime from,
                                   SimTime span) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_trace = true;
  cfg.fault_tolerance.check_interval = 5.0;
  if (fault_tolerance) {
    cfg.faults = parse_fault_spec("hbdrop@" + std::to_string(from) +
                                  ":node=" + std::to_string(node) +
                                  ":for=" + std::to_string(span));
  }
  Simulation sim(cfg);
  EXPECT_EQ(sim.scheduler().fault_tolerance().enabled, fault_tolerance);
  if (!fault_tolerance) {
    sim.sim().schedule_at(from, [&sim, node] { sim.heartbeats().set_dropped(node, true); });
    sim.sim().schedule_at(from + span,
                          [&sim, node] { sim.heartbeats().set_dropped(node, false); });
  }
  SilentNodeRun run;
  sim.heartbeats().subscribe([&](NodeId beat) {
    if (beat == node) run.beats.push_back(sim.sim().now());
  });
  Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), 1, 0,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  for (const TraceEvent& e : sim.trace()->events()) {
    bool launch = e.type == TraceEventType::kTaskLaunched ||
                  e.type == TraceEventType::kSpeculativeLaunched;
    if (launch && e.node == node) run.launches.push_back(e.time);
  }
  return run;
}

TEST(RupamScheduler, SilentNodeGetsNoWorkWhileOverdue) {
  const NodeId node = 0;
  // A span in which node 0 takes work when nothing closes it to RUPAM.
  const SimTime from = 20.0;
  const SimTime span = 8.0;
  // 3 missed beats at the default 1 s period.
  const SimTime deadline = 3.0;
  for (bool fault_tolerance : {true, false}) {
    SCOPED_TRACE(fault_tolerance ? "fault tolerance on" : "fault tolerance off");
    SilentNodeRun run = run_with_silent_node(fault_tolerance, node, from, span);
    // The one gap in the node's beats is the silence: last beat before it,
    // first beat after it.
    SimTime last = -1.0;
    SimTime resumed = -1.0;
    for (std::size_t i = 1; i < run.beats.size(); ++i) {
      if (run.beats[i] - run.beats[i - 1] > deadline) {
        ASSERT_LT(last, 0.0) << "more than one silence";
        last = run.beats[i - 1];
        resumed = run.beats[i];
      }
    }
    ASSERT_GE(last, 0.0) << "no silence in the node's beats";
    std::size_t while_overdue = 0;
    std::size_t after_resume = 0;
    for (SimTime t : run.launches) {
      if (t - last > deadline && t < resumed) ++while_overdue;
      if (t >= resumed) ++after_resume;
    }
    if (fault_tolerance) {
      // Overdue means out of every queue, even before the lagging sweep
      // declares the node dead.
      EXPECT_EQ(while_overdue, 0u);
      EXPECT_GT(after_resume, 0u) << "the node never took work after its beats resumed";
    } else {
      // Without fault tolerance a silent node is still a live node.
      EXPECT_GT(while_overdue, 0u);
    }
  }
}

}  // namespace
}  // namespace rupam
