#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "sched/scheduler.hpp"
#include "sched/speculation.hpp"
#include "tasks/locality.hpp"

namespace rupam {
namespace {

TEST(Locality, ProcessLocalRequiresCacheHit) {
  TaskSpec t;
  t.input_cache_key = "blk";
  t.preferred_nodes = {1};
  auto cache = [](NodeId n, const std::string&) { return n == 2; };
  EXPECT_EQ(locality_of(t, 2, cache), Locality::kProcessLocal);
  EXPECT_EQ(locality_of(t, 1, cache), Locality::kNodeLocal);
  EXPECT_EQ(locality_of(t, 3, cache), Locality::kAny);
}

TEST(Locality, NoPreferencesMeansAny) {
  TaskSpec t;
  EXPECT_EQ(locality_of(t, 0, nullptr), Locality::kAny);
}

TEST(Locality, OrderingHelper) {
  EXPECT_TRUE(locality_at_least(Locality::kProcessLocal, Locality::kAny));
  EXPECT_TRUE(locality_at_least(Locality::kNodeLocal, Locality::kNodeLocal));
  EXPECT_FALSE(locality_at_least(Locality::kAny, Locality::kNodeLocal));
}

TEST(ValidLevels, OnlyAchievableLevelsListed) {
  EXPECT_EQ(locality_levels(false, false), (std::vector<Locality>{Locality::kAny}));
  EXPECT_EQ(locality_levels(false, true),
            (std::vector<Locality>{Locality::kNodeLocal, Locality::kAny}));
  EXPECT_EQ(locality_levels(true, false),
            (std::vector<Locality>{Locality::kProcessLocal, Locality::kAny}));
  EXPECT_EQ(locality_levels(true, true), (std::vector<Locality>{Locality::kProcessLocal,
                                                                Locality::kNodeLocal,
                                                                Locality::kAny}));
}

TEST(Speculation, NoThresholdBeforeQuantile) {
  SpeculationRule rule;  // 0.75 quantile
  std::vector<double> finished(74, 10.0);
  EXPECT_LT(straggler_threshold(finished, 100, rule), 0.0);
  finished.push_back(10.0);
  EXPECT_GT(straggler_threshold(finished, 100, rule), 0.0);
}

TEST(Speculation, ThresholdIsMultipleOfMedian) {
  SpeculationRule rule;
  std::vector<double> finished{8.0, 10.0, 12.0};
  EXPECT_NEAR(straggler_threshold(finished, 4, rule), 15.0, 1e-12);
}

TEST(Speculation, MinThresholdFloor) {
  SpeculationRule rule;
  std::vector<double> finished{0.001, 0.001, 0.001};
  EXPECT_DOUBLE_EQ(straggler_threshold(finished, 3, rule), rule.min_threshold);
}

TEST(Speculation, EmptyInputs) {
  SpeculationRule rule;
  EXPECT_LT(straggler_threshold({}, 10, rule), 0.0);
  EXPECT_LT(straggler_threshold({1.0}, 0, rule), 0.0);
}

TEST(Speculation, IsStraggler) {
  EXPECT_TRUE(is_straggler(20.0, 15.0));
  EXPECT_FALSE(is_straggler(10.0, 15.0));
  EXPECT_FALSE(is_straggler(100.0, -1.0));  // no threshold yet
}

// Property sweep: threshold scales linearly with the finished runtimes.
class SpeculationScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(SpeculationScaleTest, ThresholdScalesWithRuntimes) {
  double scale = GetParam();
  SpeculationRule rule;
  std::vector<double> base{10.0, 12.0, 14.0, 16.0};
  std::vector<double> scaled;
  for (double v : base) scaled.push_back(v * scale);
  EXPECT_NEAR(straggler_threshold(scaled, 4, rule), scale * straggler_threshold(base, 4, rule),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, SpeculationScaleTest, ::testing::Values(1.0, 2.0, 5.0, 10.0));

// The scheduler keeps finished runtimes sorted at insert and reads the
// median off the list; the threshold must equal the one a copy of the
// runtimes in finish order + percentile_inplace gives, bit for bit, ties
// and even sizes included.
TEST(Speculation, SortedListMatchesSelection) {
  SpeculationRule rule;
  Rng rng(2024, 3);
  for (int trial = 0; trial < 2000; ++trial) {
    std::size_t n = 1 + rng.uniform_index(40);
    // Few distinct values on half the trials, so ties are common.
    std::uint64_t levels = trial % 2 == 0 ? 4 : 1000000;
    std::vector<double> arrivals, sorted;
    for (std::size_t i = 0; i < n; ++i) {
      double runtime = 0.05 * static_cast<double>(1 + rng.uniform_index(levels)) +
                       (trial % 3 == 0 ? rng.uniform() : 0.0);
      arrivals.push_back(runtime);
      insert_finished_runtime(sorted, runtime);
    }
    std::vector<double> copy = arrivals;
    SimTime selected = std::max(rule.multiplier * percentile_inplace(copy, 50.0),
                                rule.min_threshold);
    EXPECT_EQ(straggler_threshold(sorted, n, rule), selected) << "trial " << trial << " n " << n;
  }
}

// Drives SchedulerBase's launch, finish and failure paths by hand: its
// dispatch rounds launch nothing, so every attempt is one a test made.
class ScanScheduler : public SchedulerBase {
 public:
  using SchedulerBase::find_speculatable;
  using SchedulerBase::SchedulerBase;
  std::string name() const override { return "scan"; }

  /// `copy` launches a second attempt that is not a recorded speculative
  /// copy, as RUPAM's GPU race copy is.
  void launch(std::size_t index, NodeId node, bool copy = false) {
    StageState& stage = stages_.at(0);
    ASSERT_TRUE(launch_task(stage, stage.tasks.at(index), node, /*use_gpu=*/false, copy));
  }
  /// Fails the newest live attempt of a task, as an executor loss does.
  void fail_newest(std::size_t index) {
    std::shared_ptr<TaskExecution> exec = stages_.at(0).tasks.at(index).live.back().exec;
    exec->kill("executor lost", /*notify=*/true);
  }
  SimTime launch_time(std::size_t index) const {
    return stages_.at(0).tasks.at(index).live.front().exec->launch_time();
  }
  /// Task indices of stage 0 that find_speculatable returns now.
  std::vector<std::size_t> overdue() {
    std::vector<std::size_t> out;
    for (auto [stage, index] : find_speculatable()) {
      if (stage == 0) out.push_back(index);
    }
    return out;
  }
  /// The threshold the rule gives over the runtimes finished so far.
  SimTime threshold(std::size_t total_tasks) const {
    std::vector<double> runtimes;
    for (const TaskMetrics& m : completed()) insert_finished_runtime(runtimes, m.run_time());
    return straggler_threshold(runtimes, total_tasks, SpeculationRule{});
  }

 protected:
  void try_dispatch() override {}
};

struct ScanHarness {
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  std::vector<std::unique_ptr<Executor>> executors;
  std::unique_ptr<ScanScheduler> sched;

  ScanHarness() {
    Rng rng(1);
    for (int i = 0; i < 3; ++i) cluster.add_node(thor_spec());
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(
          std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
      env.executors.push_back(executors.back().get());
    }
    sched = std::make_unique<ScanScheduler>(env);
  }

  static TaskSpec task(TaskId id, CpuWork compute) {
    TaskSpec t;
    t.id = id;
    t.stage_name = "scan";
    t.partition = static_cast<int>(id);
    t.compute = compute;
    return t;
  }

  /// Stage 0: tasks 0-2 take 1 core-second, task 3 takes `last`. All four
  /// launch at t=0 (task 3 on node 0); returns once tasks 0-2 finished,
  /// which puts the stage at its 0.75 quantile.
  void run_past_quantile(CpuWork last) {
    TaskSet set;
    set.stage_name = "scan";
    for (TaskId id = 0; id < 3; ++id) set.tasks.push_back(task(id, 1.0));
    set.tasks.push_back(task(3, last));
    sched->submit(set);
    for (std::size_t i = 0; i < 4; ++i) sched->launch(i, static_cast<NodeId>(i % 3));
    while (sched->completed().size() < 3) sim.run(sim.now() + 0.25);
  }
};

// (a) The first call after a lone attempt crosses the threshold returns
// it, and no call before does. Its launch (0 -> 1 live attempts) is the
// only thing that lowers the new stage's bound.
TEST(SpeculationScan, LoneAttemptReturnedOnceOverdue) {
  ScanHarness h;
  h.run_past_quantile(1000.0);
  SimTime threshold = h.sched->threshold(4);
  ASSERT_GT(threshold, 0.0);
  SimTime launched = h.sched->launch_time(3);
  bool returned = false;
  while (!returned) {
    h.sim.run(h.sim.now() + 0.05);
    bool overdue = h.sim.now() - launched > threshold;
    std::vector<std::size_t> found = h.sched->overdue();
    ASSERT_EQ(found, overdue ? std::vector<std::size_t>{3} : std::vector<std::size_t>{})
        << "t=" << h.sim.now();
    returned = overdue;
  }
}

// (b) A call walks the stage while its old task holds two attempts (so
// the bound leaves it out); the newer attempt then fails, and the older
// survivor is returned by the very next call.
TEST(SpeculationScan, SurvivorOfFailedCopyIsReturned) {
  ScanHarness h;
  h.run_past_quantile(1000.0);
  h.sched->launch(3, 1, /*copy=*/true);
  SimTime threshold = h.sched->threshold(4);
  h.sim.run(h.sched->launch_time(3) + 2.0 * threshold + 1.0);
  EXPECT_TRUE(h.sched->overdue().empty());  // two live attempts
  h.sched->fail_newest(3);
  EXPECT_EQ(h.sched->overdue(), std::vector<std::size_t>{3});
}

// (c) Grafting a task into a stage past its quantile raises the bar, since
// every call reads the current task count; the grafted task is scanned
// once it runs.
TEST(SpeculationScan, GraftRaisesQuantileBar) {
  ScanHarness h;
  h.run_past_quantile(40.0);
  h.sim.run(h.sched->launch_time(3) + 2.0 * h.sched->threshold(4) + 1.0);
  ASSERT_EQ(h.sched->overdue(), std::vector<std::size_t>{3});
  TaskSet graft;
  graft.stage_name = "scan";
  graft.tasks.push_back(ScanHarness::task(4, 1000.0));
  h.sched->resubmit(graft);
  EXPECT_LT(h.sched->threshold(5), 0.0);  // 3 of 5 finished
  EXPECT_TRUE(h.sched->overdue().empty());
  while (h.sched->completed().size() < 4) h.sim.run(h.sim.now() + 0.25);
  EXPECT_TRUE(h.sched->overdue().empty());  // nothing running
  h.sched->launch(4, 2);
  SimTime threshold = h.sched->threshold(5);
  ASSERT_GT(threshold, 0.0);
  SimTime launched = h.sched->launch_time(4);
  bool returned = false;
  while (!returned) {
    h.sim.run(h.sim.now() + 0.05);
    bool overdue = h.sim.now() - launched > threshold;
    ASSERT_EQ(h.sched->overdue(),
              overdue ? std::vector<std::size_t>{4} : std::vector<std::size_t>{})
        << "t=" << h.sim.now();
    returned = overdue;
  }
}

}  // namespace
}  // namespace rupam
