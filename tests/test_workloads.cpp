#include <gtest/gtest.h>

#include "workloads/presets.hpp"
#include "workloads/skew.hpp"

namespace rupam {
namespace {

std::vector<NodeId> twelve_nodes() {
  std::vector<NodeId> nodes(12);
  for (int i = 0; i < 12; ++i) nodes[static_cast<std::size_t>(i)] = i;
  return nodes;
}

TEST(Presets, Table3HasSevenWorkloads) {
  const auto& presets = table3_workloads();
  ASSERT_EQ(presets.size(), 7u);
  EXPECT_EQ(presets[0].name, "LR");
  EXPECT_DOUBLE_EQ(presets[0].input_gb, 6.0);
  EXPECT_DOUBLE_EQ(workload_preset("TeraSort").input_gb, 40.0);
  EXPECT_DOUBLE_EQ(workload_preset("SQL").input_gb, 35.0);
  EXPECT_DOUBLE_EQ(workload_preset("PR").input_gb, 0.95);
  EXPECT_DOUBLE_EQ(workload_preset("TC").input_gb, 0.95);
  EXPECT_DOUBLE_EQ(workload_preset("GM").input_gb, 0.96);
  EXPECT_DOUBLE_EQ(workload_preset("KMeans").input_gb, 3.7);
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW(workload_preset("NotAWorkload"), std::invalid_argument);
}

class AllWorkloadsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllWorkloadsTest, GeneratesValidApplication) {
  const WorkloadPreset& preset = workload_preset(GetParam());
  Application app = build_workload(preset, twelve_nodes(), 42);
  app.validate();  // throws on inconsistency
  EXPECT_GT(app.total_tasks(), 0u);
  EXPECT_FALSE(app.jobs.empty());
}

TEST_P(AllWorkloadsTest, DeterministicGivenSeed) {
  const WorkloadPreset& preset = workload_preset(GetParam());
  Application a = build_workload(preset, twelve_nodes(), 42);
  Application b = build_workload(preset, twelve_nodes(), 42);
  ASSERT_EQ(a.total_tasks(), b.total_tasks());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    for (std::size_t s = 0; s < a.jobs[j].stages.size(); ++s) {
      const auto& ta = a.jobs[j].stages[s].tasks.tasks;
      const auto& tb = b.jobs[j].stages[s].tasks.tasks;
      for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_DOUBLE_EQ(ta[i].compute, tb[i].compute);
        EXPECT_DOUBLE_EQ(ta[i].peak_memory, tb[i].peak_memory);
        EXPECT_EQ(ta[i].preferred_nodes, tb[i].preferred_nodes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table3, AllWorkloadsTest,
                         ::testing::Values("LR", "TeraSort", "SQL", "PR", "TC", "GM",
                                           "KMeans"));

TEST(Workloads, IterativeStageNamesStableAcrossIterations) {
  Application app = build_workload(workload_preset("LR"), twelve_nodes(), 1, 4);
  // All gradient stages share one name — the DB_task_char key space.
  int gradient_stages = 0;
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      if (stage.name == "lr-gradient") ++gradient_stages;
    }
  }
  EXPECT_EQ(gradient_stages, 3);  // iterations 1..3 (load pass is separate)
}

TEST(Workloads, SkewStableAcrossIterations) {
  // The same partition must have the same demand in every iteration — hot
  // data stays hot; this is what makes per-task history predictive.
  Application app = build_workload(workload_preset("LR"), twelve_nodes(), 1, 4);
  std::vector<const Stage*> grads;
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      if (stage.name == "lr-gradient") grads.push_back(&stage);
    }
  }
  ASSERT_GE(grads.size(), 2u);
  for (std::size_t p = 0; p < grads[0]->tasks.size(); ++p) {
    EXPECT_DOUBLE_EQ(grads[0]->tasks.tasks[p].compute, grads[1]->tasks.tasks[p].compute);
  }
}

TEST(Workloads, IterationOverrideChangesJobCount) {
  Application three = build_workload(workload_preset("LR"), twelve_nodes(), 1, 3);
  Application eight = build_workload(workload_preset("LR"), twelve_nodes(), 1, 8);
  EXPECT_LT(three.jobs.size(), eight.jobs.size());
}

TEST(Workloads, GramianIsSingleJobGpu) {
  Application app = build_workload(workload_preset("GM"), twelve_nodes(), 1);
  EXPECT_EQ(app.jobs.size(), 1u);
  EXPECT_TRUE(app.jobs[0].stages[0].tasks.tasks[0].gpu_accelerable);
}

TEST(Workloads, PageRankIsMemoryHeavy) {
  Application app = build_workload(workload_preset("PR"), twelve_nodes(), 1);
  bool found_contrib = false;
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      if (stage.name != "pr-contrib") continue;
      found_contrib = true;
      for (const auto& t : stage.tasks.tasks) EXPECT_GT(t.total_memory(), 1.0 * kGiB);
    }
  }
  EXPECT_TRUE(found_contrib);
}

TEST(Workloads, TerasortMovesItsInputSize) {
  Application app = build_workload(workload_preset("TeraSort"), twelve_nodes(), 1);
  Bytes input = 0.0;
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      for (const auto& t : stage.tasks.tasks) input += t.input_bytes;
    }
  }
  EXPECT_NEAR(to_gib(input), 40.0, 4.0);  // within skew noise
}

TEST(Workloads, MatMulHasThreeStages) {
  WorkloadParams p;
  p.input_gb = 0.25;
  p.seed = 1;
  Application app = make_matmul(twelve_nodes(), p);
  ASSERT_EQ(app.jobs.size(), 1u);
  EXPECT_EQ(app.jobs[0].stages.size(), 3u);
}

TEST(Skew, FactorMeanNearOne) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += skew_factor(rng, 0.3, 0.0);
  EXPECT_NEAR(sum / n, 1.0, 0.03);
}

TEST(Skew, HeavyTailProducesOutliers) {
  Rng rng(5);
  int outliers = 0;
  for (int i = 0; i < 10000; ++i) outliers += skew_factor(rng, 0.1, 0.1) > 3.0;
  EXPECT_NEAR(outliers, 1000, 150);
}

TEST(Skew, ZeroCvIsDeterministicOne) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(skew_factor(rng, 0.0, 0.0), 1.0);
}

TEST(WorkloadBuilder, RejectsBadInput) {
  EXPECT_THROW(WorkloadBuilder({}, 1), std::invalid_argument);
  EXPECT_THROW(WorkloadBuilder({0, 1}, 1, {1.0}), std::invalid_argument);
  WorkloadBuilder builder({0, 1}, 1);
  Application app;
  JobProfile bad;
  bad.name = "bad";
  StageProfile sp;
  sp.name = "s";
  sp.num_tasks = 0;
  bad.stages.push_back(sp);
  EXPECT_THROW(builder.add_job(app, bad), std::invalid_argument);
}

TEST(WorkloadBuilder, ParentIndicesMustPrecede) {
  WorkloadBuilder builder({0, 1}, 1);
  Application app;
  JobProfile bad;
  bad.name = "bad";
  StageProfile sp;
  sp.name = "s";
  sp.num_tasks = 1;
  sp.parents = {0};  // stage 0 cannot be its own parent
  bad.stages.push_back(sp);
  EXPECT_THROW(builder.add_job(app, bad), std::invalid_argument);
}

}  // namespace
}  // namespace rupam
