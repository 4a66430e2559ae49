#include <gtest/gtest.h>

#include <map>

#include "dag/dag_scheduler.hpp"
#include "dag/rdd.hpp"

namespace rupam {
namespace {

TaskSpec make_task(TaskId id, StageId stage, int partition) {
  TaskSpec t;
  t.id = id;
  t.stage = stage;
  t.stage_name = "s" + std::to_string(stage);
  t.partition = partition;
  return t;
}

Stage make_stage(StageId id, int tasks, std::vector<StageId> parents, TaskId base) {
  Stage s;
  s.id = id;
  s.name = "s" + std::to_string(id);
  s.parents = std::move(parents);
  s.tasks.stage = id;
  s.tasks.stage_name = s.name;
  for (int i = 0; i < tasks; ++i) s.tasks.tasks.push_back(make_task(base + i, id, i));
  return s;
}

TEST(PlaceBlocks, UniformCoversAllNodes) {
  Rng rng(1);
  std::vector<NodeId> nodes{0, 1, 2, 3};
  auto placement = place_blocks(400, nodes, 2, rng);
  ASSERT_EQ(placement.size(), 400u);
  std::map<NodeId, int> counts;
  for (const auto& replicas : placement) {
    EXPECT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);  // distinct replicas
    for (NodeId n : replicas) counts[n]++;
  }
  for (NodeId n : nodes) {
    EXPECT_GT(counts[n], 150);  // ~200 each
    EXPECT_LT(counts[n], 250);
  }
}

TEST(PlaceBlocks, WeightsBiasPlacement) {
  Rng rng(1);
  std::vector<NodeId> nodes{0, 1};
  auto placement = place_blocks(600, nodes, 1, rng, {1.0, 3.0});
  int heavy = 0;
  for (const auto& replicas : placement) heavy += replicas[0] == 1;
  // Node 1 holds ~3/4 of the blocks.
  EXPECT_GT(heavy, 380);
  EXPECT_LT(heavy, 520);
}

TEST(PlaceBlocks, ReplicationClampedToNodeCount) {
  Rng rng(1);
  auto placement = place_blocks(10, {0, 1}, 3, rng);
  for (const auto& replicas : placement) EXPECT_EQ(replicas.size(), 2u);
}

TEST(PlaceBlocks, Validation) {
  Rng rng(1);
  EXPECT_THROW(place_blocks(10, {}, 1, rng), std::invalid_argument);
  EXPECT_THROW(place_blocks(10, {0}, 0, rng), std::invalid_argument);
  EXPECT_THROW(place_blocks(10, {0, 1}, 1, rng, {1.0}), std::invalid_argument);
}

TEST(JobValidation, CatchesBadDags) {
  Job job;
  job.stages.push_back(make_stage(0, 1, {}, 0));
  job.stages.push_back(make_stage(0, 1, {}, 10));  // duplicate id
  EXPECT_THROW(job.validate(), std::invalid_argument);

  Job job2;
  job2.stages.push_back(make_stage(0, 1, {5}, 0));  // unknown parent
  EXPECT_THROW(job2.validate(), std::invalid_argument);

  Job job3;
  Stage self = make_stage(1, 1, {}, 0);
  self.parents = {1};
  job3.stages.push_back(self);
  EXPECT_THROW(job3.validate(), std::invalid_argument);
}

TEST(ApplicationValidation, CatchesDuplicateTaskIds) {
  Application app;
  Job j1;
  j1.id = 0;
  j1.stages.push_back(make_stage(0, 2, {}, 0));
  Job j2;
  j2.id = 1;
  j2.stages.push_back(make_stage(1, 2, {}, 1));  // task id 1 reused
  app.jobs = {j1, j2};
  EXPECT_THROW(app.validate(), std::invalid_argument);
}

struct DagHarness {
  Simulator sim;
  std::vector<StageId> submitted;
  DagScheduler dag{sim, [this](const TaskSet& ts) { submitted.push_back(ts.stage); }};

  void finish_stage(const Application& app, StageId stage) {
    for (const auto& job : app.jobs) {
      for (const auto& s : job.stages) {
        if (s.id != stage) continue;
        for (const auto& t : s.tasks.tasks) dag.on_partition_success(stage, t.partition);
      }
    }
  }
};

TEST(DagScheduler, LinearStagesRunInOrder) {
  Application app;
  Job job;
  job.stages.push_back(make_stage(0, 2, {}, 0));
  job.stages.push_back(make_stage(1, 2, {0}, 10));
  app.jobs.push_back(job);

  DagHarness h;
  bool done = false;
  h.dag.run(app, [&] { done = true; });
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0}));
  h.finish_stage(app, 0);
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0, 1}));
  EXPECT_FALSE(done);
  h.finish_stage(app, 1);
  EXPECT_TRUE(done);
}

TEST(DagScheduler, IndependentStagesSubmittedTogether) {
  Application app;
  Job job;
  job.stages.push_back(make_stage(0, 1, {}, 0));
  job.stages.push_back(make_stage(1, 1, {}, 10));
  job.stages.push_back(make_stage(2, 1, {0, 1}, 20));
  app.jobs.push_back(job);

  DagHarness h;
  h.dag.run(app, nullptr);
  EXPECT_EQ(h.submitted.size(), 2u);  // 0 and 1 concurrently
  h.finish_stage(app, 0);
  EXPECT_EQ(h.submitted.size(), 2u);  // 2 still blocked on 1
  h.finish_stage(app, 1);
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0, 1, 2}));
}

TEST(DagScheduler, JobsRunSequentially) {
  Application app;
  Job j1;
  j1.id = 0;
  j1.stages.push_back(make_stage(0, 1, {}, 0));
  Job j2;
  j2.id = 1;
  j2.stages.push_back(make_stage(1, 1, {}, 10));
  app.jobs = {j1, j2};

  DagHarness h;
  bool done = false;
  h.dag.run(app, [&] { done = true; });
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0}));
  h.finish_stage(app, 0);
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0, 1}));
  h.finish_stage(app, 1);
  EXPECT_TRUE(done);
  EXPECT_TRUE(h.dag.finished());
}

TEST(DagScheduler, DuplicateSuccessIgnored) {
  Application app;
  Job job;
  job.stages.push_back(make_stage(0, 2, {}, 0));
  app.jobs.push_back(job);
  DagHarness h;
  bool done = false;
  h.dag.run(app, [&] { done = true; });
  h.dag.on_partition_success(0, 0);
  h.dag.on_partition_success(0, 0);  // duplicate: must not complete stage
  EXPECT_FALSE(done);
  h.dag.on_partition_success(0, 1);
  EXPECT_TRUE(done);
}

TEST(DagScheduler, StaleReportIgnored) {
  Application app;
  Job job;
  job.stages.push_back(make_stage(0, 1, {}, 0));
  app.jobs.push_back(job);
  DagHarness h;
  h.dag.run(app, nullptr);
  h.dag.on_partition_success(99, 0);  // unknown stage: no crash
  EXPECT_FALSE(h.dag.finished());
}

TEST(DagScheduler, RejectsConcurrentRun) {
  Application app;
  Job job;
  job.stages.push_back(make_stage(0, 1, {}, 0));
  app.jobs.push_back(job);
  DagHarness h;
  h.dag.run(app, nullptr);
  EXPECT_THROW(h.dag.run(app, nullptr), std::logic_error);
}

}  // namespace
}  // namespace rupam
