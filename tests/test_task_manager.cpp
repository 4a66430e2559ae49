// Algorithm 1 (task characterization) and DB_task_char behaviour.
#include <gtest/gtest.h>

#include "sched/rupam/task_manager.hpp"

namespace rupam {
namespace {

struct Algo1Case {
  double compute, read, write;
  bool gpu;
  ResourceKind expected;
};

class Algorithm1Test : public ::testing::TestWithParam<Algo1Case> {};

TEST_P(Algorithm1Test, ClassifiesBottleneck) {
  TaskCharDb db;
  TaskManager tm(db, 2.0);
  const Algo1Case& c = GetParam();
  EXPECT_EQ(tm.bottleneck(c.compute, c.read, c.write, c.gpu), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRules, Algorithm1Test,
    ::testing::Values(
        // GPU dominates everything.
        Algo1Case{100.0, 1.0, 1.0, true, ResourceKind::kGpu},
        Algo1Case{0.0, 100.0, 0.0, true, ResourceKind::kGpu},
        // compute > Res_factor * max(read, write) -> CPU.
        Algo1Case{10.0, 4.0, 1.0, false, ResourceKind::kCpu},
        Algo1Case{10.0, 0.0, 0.0, false, ResourceKind::kCpu},
        // boundary: compute == 2*max -> NOT CPU (strict >).
        Algo1Case{8.0, 4.0, 0.0, false, ResourceKind::kNetwork},
        // read > Res_factor * write -> NET.
        Algo1Case{1.0, 10.0, 1.0, false, ResourceKind::kNetwork},
        // otherwise DISK.
        Algo1Case{1.0, 4.0, 4.0, false, ResourceKind::kDisk},
        Algo1Case{0.0, 0.0, 10.0, false, ResourceKind::kDisk},
        Algo1Case{0.0, 0.0, 0.0, false, ResourceKind::kDisk}));

TEST(TaskManager, ResFactorChangesSensitivity) {
  TaskCharDb db;
  TaskManager strict(db, 4.0);
  TaskManager loose(db, 1.5);
  // compute=10, read=4: 10 > 1.5*4 but not > 4*4.
  EXPECT_EQ(loose.bottleneck(10.0, 4.0, 0.0, false), ResourceKind::kCpu);
  EXPECT_EQ(strict.bottleneck(10.0, 4.0, 0.0, false), ResourceKind::kNetwork);
}

TEST(TaskManager, RejectsBadResFactor) {
  TaskCharDb db;
  EXPECT_THROW(TaskManager(db, 0.0), std::invalid_argument);
}

TaskSpec spec_named(const std::string& stage_name, int partition, bool map) {
  TaskSpec t;
  t.stage_name = stage_name;
  t.partition = partition;
  t.is_shuffle_map = map;
  return t;
}

TEST(TaskManager, FirstTimeMapGoesToAllQueues) {
  TaskCharDb db;
  TaskManager tm(db);
  auto kinds = tm.classify(spec_named("map-stage", 0, true));
  EXPECT_EQ(kinds.size(), 4u);  // CPU, MEM, DISK, NET (not GPU)
}

TEST(TaskManager, FirstTimeReduceIsNetworkBound) {
  TaskCharDb db;
  TaskManager tm(db);
  auto kinds = tm.classify(spec_named("reduce-stage", 0, false));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kNetwork);
}

TEST(TaskManager, KnownTaskClassifiedFromRecord) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskMetrics m;
  m.compute_time = 100.0;
  m.shuffle_read_time = 1.0;
  m.shuffle_write_time = 1.0;
  db.update("stage", 0, m, ResourceKind::kCpu);
  auto kinds = tm.classify(spec_named("stage", 0, true));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kCpu);
}

TEST(TaskManager, BigMemoryTasksAlsoJoinMemQueue) {
  TaskCharDb db;
  TaskManager tm(db, 2.0);
  TaskMetrics m;
  m.compute_time = 100.0;
  m.peak_memory = 3.0 * kGiB;
  db.update("stage", 0, m, ResourceKind::kCpu);
  auto kinds = tm.classify(spec_named("stage", 0, true));
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], ResourceKind::kMemory);
}

TEST(TaskManager, GpuStageMarkingPropagatesToSiblings) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskSpec t = spec_named("gpu-stage", 0, true);
  TaskMetrics m;
  m.used_gpu = true;
  m.compute_time = 5.0;
  tm.record_completion(t, m);
  // A *different* partition of the same stage is now GPU-classified
  // ("marks all the tasks in the same stage to be GPU tasks").
  auto kinds = tm.classify(spec_named("gpu-stage", 17, true));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kGpu);
}

/// Index of the task behind the first in row of `kind`'s queue (the row a
/// query meets first), or -1 when the queue has none.
long first_in_row(TaskManager& tm, ResourceKind kind) {
  std::uint32_t first = 0;
  std::size_t examined = 0;
  bool found = tm.queue(kind).any_live(
      [&](std::uint32_t r) {
        first = r;
        return true;
      },
      examined);
  return found ? static_cast<long>(tm.task_of(kind, first).index) : -1;
}

TEST(TaskManager, QueuesEnqueueAndClear) {
  TaskCharDb db;
  TaskManager tm(db);
  std::uint32_t slot = tm.open_stage(1, "m", 0);
  tm.enqueue(spec_named("m", 0, true), {slot, 0});
  EXPECT_EQ(tm.pending_rows(ResourceKind::kCpu), 1u);
  EXPECT_EQ(tm.pending_rows(ResourceKind::kNetwork), 1u);
  EXPECT_EQ(tm.pending_rows(ResourceKind::kGpu), 0u);
  tm.note_finished({slot, 0});  // a finished task leaves every queue it was in
  EXPECT_EQ(tm.pending_rows(ResourceKind::kCpu), 0u);
  EXPECT_EQ(tm.pending_rows(ResourceKind::kNetwork), 0u);
  EXPECT_EQ(first_in_row(tm, ResourceKind::kCpu), -1);
}

TEST(TaskManager, ParkAndRestorePreservesQueuePosition) {
  TaskCharDb db;
  TaskManager tm(db);
  std::uint32_t slot = tm.open_stage(1, "m", 0);
  for (std::uint32_t i = 0; i < 3; ++i) tm.enqueue(spec_named("m", static_cast<int>(i), true), {slot, i});
  ASSERT_EQ(tm.pending_rows(ResourceKind::kCpu), 3u);

  // Launch the head task: its rows park in every queue they occupy.
  tm.note_launched({slot, 0});
  EXPECT_EQ(tm.pending_rows(ResourceKind::kCpu), 2u);
  EXPECT_EQ(tm.running_rows(ResourceKind::kCpu), 1u);
  EXPECT_EQ(tm.running_rows(ResourceKind::kNetwork), 1u);
  EXPECT_EQ(first_in_row(tm, ResourceKind::kCpu), 1);  // the head passed it

  // A failure restores the rows at their original (front) position.
  tm.note_pending_again({slot, 0});
  ASSERT_EQ(tm.pending_rows(ResourceKind::kCpu), 3u);
  EXPECT_EQ(tm.running_rows(ResourceKind::kCpu), 0u);
  EXPECT_EQ(first_in_row(tm, ResourceKind::kCpu), 0);

  // Re-enqueued after the failure, the task keeps its one row, up front.
  tm.enqueue(spec_named("m", 0, true), {slot, 0});
  EXPECT_EQ(tm.pending_rows(ResourceKind::kCpu), 3u);

  // Finishing drops every row, parked or in.
  tm.note_launched({slot, 1});
  tm.note_finished({slot, 1});
  tm.note_finished({slot, 0});
  EXPECT_EQ(tm.pending_rows(ResourceKind::kCpu), 1u);
  EXPECT_EQ(tm.running_rows(ResourceKind::kCpu), 0u);
  EXPECT_EQ(first_in_row(tm, ResourceKind::kCpu), 2);
}

TEST(TaskCharDb, LookupMissReturnsNull) {
  TaskCharDb db;
  EXPECT_EQ(db.lookup("x", 0), nullptr);
}

TEST(TaskCharDb, UpdateSmoothsAndTracksBest) {
  TaskCharDb db;
  TaskMetrics m1;
  m1.compute_time = 10.0;
  m1.node = 3;
  m1.launch_time = 0.0;
  m1.finish_time = 20.0;
  db.update("s", 0, m1, ResourceKind::kCpu);
  const TaskCharRecord* rec = db.lookup("s", 0);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->compute_time, 10.0);
  EXPECT_EQ(rec->opt_executor, 3);
  EXPECT_DOUBLE_EQ(rec->best_runtime, 20.0);

  TaskMetrics m2;
  m2.compute_time = 20.0;
  m2.node = 5;
  m2.launch_time = 0.0;
  m2.finish_time = 8.0;  // faster -> becomes opt executor
  db.update("s", 0, m2, ResourceKind::kNetwork);
  rec = db.lookup("s", 0);
  EXPECT_DOUBLE_EQ(rec->compute_time, 15.0);  // alpha = 0.5 smoothing
  EXPECT_EQ(rec->opt_executor, 5);
  EXPECT_EQ(rec->runs, 2);
  EXPECT_EQ(rec->history_resources.size(), 2u);
}

TEST(TaskCharDb, SlowerRunDoesNotStealOptExecutor) {
  TaskCharDb db;
  TaskMetrics fast;
  fast.node = 1;
  fast.finish_time = 5.0;
  db.update("s", 0, fast, ResourceKind::kCpu);
  TaskMetrics slow;
  slow.node = 2;
  slow.finish_time = 50.0;
  db.update("s", 0, slow, ResourceKind::kCpu);
  EXPECT_EQ(db.lookup("s", 0)->opt_executor, 1);
}

TEST(TaskCharDb, PartitionsAreIndependent) {
  TaskCharDb db;
  TaskMetrics m;
  db.update("s", 0, m, ResourceKind::kCpu);
  EXPECT_EQ(db.lookup("s", 1), nullptr);
  EXPECT_EQ(db.lookup("t", 0), nullptr);
}

}  // namespace
}  // namespace rupam
