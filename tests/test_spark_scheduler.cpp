// Integration tests for the default Spark scheduler model.
#include <gtest/gtest.h>

#include "app/simulation.hpp"
#include "metrics/locality_counter.hpp"

namespace rupam {
namespace {

// Small helper building a one-stage application.
Application one_stage_app(std::vector<TaskSpec> tasks, const std::string& name = "s0") {
  Application app;
  Job job;
  job.id = 0;
  job.name = "job";
  Stage stage;
  stage.id = 0;
  stage.name = name;
  stage.tasks.stage = 0;
  stage.tasks.stage_name = name;
  for (auto& t : tasks) {
    t.stage = 0;
    t.stage_name = name;
    stage.tasks.tasks.push_back(t);
  }
  app.jobs.push_back(std::move(job));
  app.jobs[0].stages.push_back(std::move(stage));
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

TEST(SparkScheduler, RunsAllTasksToCompletion) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 50; ++i) tasks.push_back(small_task(i));
  Application app = one_stage_app(std::move(tasks));
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 0.0);
  EXPECT_EQ(sim.scheduler().completed().size(), 50u);
}

TEST(SparkScheduler, OneTaskPerCoreLimit) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);  // Hydra: 208 cores total
  // 300 identical compute-bound tasks: at most 208 run concurrently, so at
  // least two waves are needed. One wave of a 10 ref-core-sec task on the
  // slowest class (stack, perf 1.0) is 10s.
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 300; ++i) tasks.push_back(small_task(i, 10.0));
  Application app = one_stage_app(std::move(tasks));
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 10.0);  // cannot be a single wave
}

TEST(SparkScheduler, PrefersNodeLocalPlacement) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 24; ++i) {
    TaskSpec t = small_task(i);
    t.input_bytes = 8.0 * kMiB;
    t.preferred_nodes = {static_cast<NodeId>(i % 12)};
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  for (const auto& m : sim.scheduler().completed()) {
    EXPECT_EQ(m.locality, Locality::kNodeLocal);
    EXPECT_EQ(m.node, m.partition % 12);
  }
}

TEST(SparkScheduler, RelaxesLocalityAfterWait) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  // All 40 tasks prefer node 0 (8 cores): pure pinning would serialize
  // into 5 waves; delay scheduling must let other nodes steal.
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 40; ++i) {
    TaskSpec t = small_task(i, 20.0);
    t.input_bytes = 8.0 * kMiB;
    t.preferred_nodes = {0};
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  LocalityCounts counts{};
  for (const auto& m : sim.scheduler().completed()) {
    counts[static_cast<std::size_t>(m.locality)]++;
  }
  EXPECT_GT(counts[static_cast<std::size_t>(Locality::kAny)], 0u);       // stolen
  EXPECT_GT(counts[static_cast<std::size_t>(Locality::kNodeLocal)], 0u); // pinned
}

TEST(SparkScheduler, SpeculationRescuesStraggler) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.speculation.enabled = true;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 30; ++i) tasks.push_back(small_task(i, 5.0));
  // One whale: 40x the work. Pinned to a slow stack node via preference.
  TaskSpec whale = small_task(30, 200.0);
  tasks.push_back(whale);
  Application app = one_stage_app(std::move(tasks));
  SimTime makespan = sim.run(app);
  EXPECT_GT(sim.scheduler().straggler_copies(), 0u);
  // Without speculation the whale on a stack core (perf 1.0) takes 200s;
  // a thor copy takes ~57s.
  (void)makespan;
}

TEST(SparkScheduler, SpeculationCanBeDisabled) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.speculation.enabled = false;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 30; ++i) tasks.push_back(small_task(i, 5.0));
  tasks.push_back(small_task(30, 100.0));
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().straggler_copies(), 0u);
}

TEST(SparkScheduler, StaticExecutorSizedForWeakestNode) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  // min node memory (thor: 16 GiB) - 2 GiB headroom = 14 GiB everywhere.
  for (NodeId id : sim.cluster().node_ids()) {
    EXPECT_DOUBLE_EQ(sim.executor(id).heap() / kGiB, 14.0);
  }
}

TEST(SparkScheduler, OomTasksRetryAndComplete) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 60; ++i) {
    TaskSpec t = small_task(i, 10.0);
    t.unmanaged_memory = 2.0 * kGiB;  // 8 per thor node = 16 GiB > 14 heap
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 60u);  // retried to success
}

}  // namespace
}  // namespace rupam
