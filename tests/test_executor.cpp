// Executor / TaskExecution behaviour: phase timing, metrics breakdown,
// memory semantics (managed spill vs unmanaged OOM vs executor loss),
// caching, GPU usage, and kill paths.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/presets.hpp"
#include "exec/executor.hpp"

namespace rupam {
namespace {

struct Harness {
  Simulator sim;
  Cluster cluster{sim};
  NodeId node_id;
  std::unique_ptr<Executor> exec;
  std::vector<TaskMetrics> finished;
  std::vector<std::string> failures;

  explicit Harness(NodeSpec spec = thor_spec(), ExecutorConfig cfg = {}) {
    spec.name = "n0";
    node_id = cluster.add_node(spec);
    exec = std::make_unique<Executor>(sim, cluster.node(node_id), 0, cfg);
  }

  std::shared_ptr<TaskExecution> launch(TaskSpec spec, LaunchOptions opts = {}) {
    return exec->launch(
        spec, opts, [this](const TaskMetrics& m) { finished.push_back(m); },
        [this](const TaskSpec&, AttemptId, const std::string& reason) {
          failures.push_back(reason);
        });
  }

  static TaskSpec simple_task(TaskId id = 1) {
    TaskSpec t;
    t.id = id;
    t.stage = 0;
    t.stage_name = "s";
    t.partition = static_cast<int>(id);
    t.compute = 7.0;
    t.peak_memory = 256.0 * kMiB;
    t.serialization_fraction = 0.1;
    return t;
  }
};

TEST(Executor, ComputeOnlyTaskTiming) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  const TaskMetrics& m = h.finished[0];
  // thor core_speed = 3.5 -> 7 ref-core-seconds take 2s (plus GC).
  EXPECT_NEAR(m.compute_time, 2.0, 0.5);
  EXPECT_GT(m.gc_time, 0.0);
  EXPECT_NEAR(m.serialization_time, 0.1 * m.compute_time, 1e-9);
  EXPECT_FALSE(m.failed);
}

TEST(Executor, LocalInputReadUsesDisk) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.compute = 0.0;
  t.input_bytes = 510.0 * kMiB;  // thor SSD reads 510 MiB/s -> 1s
  t.preferred_nodes = {h.node_id};
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_NEAR(h.finished[0].input_read_time, 1.0, 0.01);
}

TEST(Executor, RemoteInputReadUsesNetwork) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.compute = 0.0;
  t.input_bytes = gbit_per_s(1.0);  // 1 second at full NIC
  // no preferred nodes -> remote fetch
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_NEAR(h.finished[0].input_read_time, 1.0, 0.01);
}

TEST(Executor, CachedInputIsFast) {
  Harness h;
  h.exec->cache().put("block_1", 64.0 * kMiB);
  TaskSpec t = Harness::simple_task();
  t.compute = 0.0;
  t.input_bytes = 64.0 * kMiB;
  t.input_cache_key = "block_1";
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_LT(h.finished[0].input_read_time, 0.05);  // memory-speed read
}

TEST(Executor, CacheMissRecachesReadThrough) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.input_bytes = 64.0 * kMiB;
  t.input_cache_key = "block_2";
  h.launch(t);
  h.sim.run();
  EXPECT_TRUE(h.exec->cache().contains("block_2"));
}

TEST(Executor, ShuffleSplitsDiskAndNet) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.compute = 0.0;
  t.shuffle_read_bytes = 100.0 * kMiB;
  t.shuffle_remote_fraction = 0.75;
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  const TaskMetrics& m = h.finished[0];
  EXPECT_GT(m.shuffle_net_time, 0.0);
  EXPECT_GT(m.shuffle_disk_time, 0.0);
  EXPECT_NEAR(m.shuffle_read_time, m.shuffle_net_time + m.shuffle_disk_time, 1e-9);
}

TEST(Executor, ShuffleWriteAndOutput) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.compute = 0.0;
  t.shuffle_write_bytes = 460.0 * kMiB;  // thor SSD write 460 MiB/s -> 1s
  t.output_bytes = gbit_per_s(1.0) / 2;  // 0.5s on the NIC
  t.is_shuffle_map = false;
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_NEAR(h.finished[0].shuffle_write_time, 1.0, 0.02);
  EXPECT_NEAR(h.finished[0].output_time, 0.5, 0.02);
}

TEST(Executor, CachesOutputBlock) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  t.cache_output_key = "rdd_5_0";
  t.cache_output_bytes = 32.0 * kMiB;
  h.launch(t);
  h.sim.run();
  EXPECT_TRUE(h.exec->cache().contains("rdd_5_0"));
}

TEST(Executor, SlotsTrackRunningTasks) {
  ExecutorConfig cfg;
  cfg.task_slots = 4;
  Harness h(thor_spec(), cfg);
  EXPECT_EQ(h.exec->free_slots(), 4);
  for (TaskId i = 0; i < 3; ++i) h.launch(Harness::simple_task(i));
  EXPECT_EQ(h.exec->free_slots(), 1);
  EXPECT_EQ(h.exec->running_tasks(), 3);
  h.sim.run();
  EXPECT_EQ(h.exec->free_slots(), 4);
}

TEST(Executor, ManagedShortfallSpillsInsteadOfFailing) {
  ExecutorConfig cfg;
  cfg.heap = 1.0 * kGiB;
  Harness h(thor_spec(), cfg);
  TaskSpec t = Harness::simple_task();
  t.peak_memory = 4.0 * kGiB;  // far beyond the heap
  t.compute = 1.0;
  h.launch(t);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);      // completed
  EXPECT_TRUE(h.failures.empty());       // no OOM for managed memory
  EXPECT_GT(h.finished[0].shuffle_write_time, 1.0);  // spill wrote to disk
}

TEST(Executor, UnmanagedOverflowOomKillsNewest) {
  ExecutorConfig cfg;
  cfg.heap = 2.0 * kGiB;
  cfg.oom_grace = 0.5;
  Harness h(thor_spec(), cfg);
  for (TaskId i = 0; i < 3; ++i) {
    TaskSpec t = Harness::simple_task(i);
    t.unmanaged_memory = 0.8 * kGiB;  // 2.4 GiB total: over heap, under kill
    t.peak_memory = 0.0;
    t.compute = 200.0;  // long enough to be running when pressure resolves
    h.launch(t);
  }
  h.sim.run(5.0);
  EXPECT_EQ(h.exec->oom_kills(), 1u);  // one kill brings 1.6 GiB under 2 GiB
  ASSERT_GE(h.failures.size(), 1u);
  EXPECT_NE(h.failures[0].find("OutOfMemory"), std::string::npos);
  EXPECT_EQ(h.exec->running_tasks(), 2);
}

TEST(Executor, ExtremeOverflowKillsExecutor) {
  ExecutorConfig cfg;
  cfg.heap = 2.0 * kGiB;
  cfg.oom_grace = 0.5;
  cfg.restart_delay = 5.0;
  Harness h(thor_spec(), cfg);
  bool lost = false;
  h.exec->set_lost_handler([&](ExecutorId) { lost = true; });
  bool ready_again = false;
  h.exec->set_ready_handler([&](ExecutorId) { ready_again = true; });
  for (TaskId i = 0; i < 4; ++i) {
    TaskSpec t = Harness::simple_task(i);
    t.unmanaged_memory = 1.0 * kGiB;  // 4 GiB total > 2 GiB * 1.25
    t.peak_memory = 0.0;
    t.compute = 200.0;
    h.launch(t);
  }
  h.sim.run(2.0);
  EXPECT_TRUE(lost);
  EXPECT_EQ(h.exec->executor_losses(), 1u);
  EXPECT_FALSE(h.exec->alive());
  EXPECT_EQ(h.exec->launch(Harness::simple_task(9), {}, nullptr, nullptr), nullptr);
  EXPECT_EQ(h.failures.size(), 4u);  // all running tasks reported lost
  h.sim.run(10.0);
  EXPECT_TRUE(h.exec->alive());
  EXPECT_TRUE(ready_again);
}

TEST(Executor, KillTaskSilently) {
  Harness h;
  TaskSpec t = Harness::simple_task(7);
  t.compute = 100.0;
  std::shared_ptr<TaskExecution> attempt = h.launch(t);
  h.sim.run(1.0);
  attempt->kill("superseded", /*notify=*/false);
  EXPECT_FALSE(attempt->running());
  EXPECT_EQ(h.exec->running_tasks(), 0);
  h.sim.run();
  EXPECT_TRUE(h.finished.empty());
  EXPECT_TRUE(h.failures.empty());  // silent kill
  attempt->kill("again", /*notify=*/true);  // a killed attempt ignores later kills
  EXPECT_TRUE(h.failures.empty());
}

TEST(Executor, KillReleasesMemory) {
  Harness h;
  TaskSpec t = Harness::simple_task(7);
  t.compute = 100.0;
  t.peak_memory = 1.0 * kGiB;
  std::shared_ptr<TaskExecution> attempt = h.launch(t);
  h.sim.run(1.0);
  EXPECT_GT(h.exec->heap_used(), 0.5 * kGiB);
  attempt->kill("x", /*notify=*/false);
  EXPECT_LT(h.exec->heap_used(), 0.5 * kGiB);
}

TEST(Executor, GpuTaskUsesDeviceAndReleases) {
  Harness h(stack_spec());
  TaskSpec t = Harness::simple_task();
  t.compute = 50.0;
  t.gpu_accelerable = true;
  t.gpu_speedup = 10.0;
  LaunchOptions opts;
  opts.use_gpu = true;
  h.launch(t, opts);
  EXPECT_EQ(h.cluster.node(h.node_id).gpus().idle(), 0);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_TRUE(h.finished[0].used_gpu);
  // 50 ref-core-sec at 10x -> ~5s, far below stack's CPU (50s).
  EXPECT_LT(h.finished[0].run_time(), 10.0);
  EXPECT_EQ(h.cluster.node(h.node_id).gpus().idle(), 1);
}

TEST(Executor, GpuContentionFallsBackToCpu) {
  Harness h(stack_spec());  // one device
  TaskSpec a = Harness::simple_task(1);
  a.compute = 50.0;
  a.gpu_accelerable = true;
  TaskSpec b = Harness::simple_task(2);
  b.compute = 50.0;
  b.gpu_accelerable = true;
  LaunchOptions opts;
  opts.use_gpu = true;
  h.launch(a, opts);
  h.launch(b, opts);
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 2u);
  int on_gpu = h.finished[0].used_gpu + h.finished[1].used_gpu;
  EXPECT_EQ(on_gpu, 1);  // the loser ran on the (slow) CPU
}

TEST(Executor, SchedulerDelayMeasured) {
  Harness h;
  TaskSpec t = Harness::simple_task();
  LaunchOptions opts;
  opts.submit_time = 0.0;
  h.sim.schedule_at(3.0, [&] { h.launch(t, opts); });
  h.sim.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_DOUBLE_EQ(h.finished[0].scheduler_delay, 3.0);
}

TEST(Executor, ElasticMemoryGrowsIntoFreeHeapBounded) {
  ExecutorConfig cfg;
  cfg.heap = 32.0 * kGiB;
  Harness h(hulk_spec(), cfg);
  TaskSpec t = Harness::simple_task();
  t.peak_memory = 1.0 * kGiB;
  t.elastic_memory_fraction = 0.5;
  t.compute = 50.0;
  h.launch(t);
  h.sim.run(0.5);
  // Reserved = peak + min(0.5 * headroom, 2 * peak) = 3 GiB.
  EXPECT_NEAR(h.exec->heap_used() / kGiB, 3.0, 0.01);
  h.sim.run();
}

}  // namespace
}  // namespace rupam
