// Deterministic fault plans against all four schedulers, plus unit tests
// for the FaultPlan spec parser and the chaos-plan generator.
#include <gtest/gtest.h>

#include <limits>

#include "fault_invariants.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

constexpr SchedulerKind kAllSchedulers[] = {SchedulerKind::kSpark, SchedulerKind::kRupam,
                                            SchedulerKind::kStageAware, SchedulerKind::kFifo};

// Shrunk shuffle-heavy workload: small enough to keep the suite fast,
// large enough that a fault at t≈15 s lands mid-job.
Application shrunk_workload(Simulation& sim, const char* name, std::uint64_t seed) {
  const WorkloadPreset& preset = workload_preset(name);
  WorkloadParams params;
  params.input_gb = preset.input_gb / 16.0;
  params.iterations = std::min(preset.iterations, 2);
  params.seed = seed;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  return preset.factory(sim.cluster().node_ids(), params);
}

class FaultPlansEverySched : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FaultPlansEverySched, PermanentCrashMidStage) {
  SimulationConfig cfg;
  cfg.scheduler = GetParam();
  cfg.faults = parse_fault_spec("crash@15:node=2");
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 15.0) << "fault must land mid-run";
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_EQ(sim.injector()->crashes(), 1u);
  EXPECT_EQ(sim.injector()->recoveries(), 0u);
  EXPECT_FALSE(sim.executor(2).alive());
  expect_recovered_completion(sim, app);
}

TEST_P(FaultPlansEverySched, CrashThenRecover) {
  SimulationConfig cfg;
  cfg.scheduler = GetParam();
  cfg.faults = parse_fault_spec("crash@15:node=2:down=30");
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 15.0);
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_EQ(sim.injector()->crashes(), 1u);
  if (makespan > 45.0) {
    EXPECT_EQ(sim.injector()->recoveries(), 1u);
    EXPECT_TRUE(sim.executor(2).alive());  // back in service
  }
  expect_recovered_completion(sim, app);
}

TEST_P(FaultPlansEverySched, TransientSlowdowns) {
  SimulationConfig cfg;
  cfg.scheduler = GetParam();
  cfg.faults = parse_fault_spec(
      "slow@10:node=0:res=cpu:factor=0.25:for=30;"
      "slow@12:node=5:res=disk:factor=0.5:for=30;"
      "slow@14:node=8:res=net:factor=0.4:for=30");
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 14.0);
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_EQ(sim.injector()->injected(), 3u);
  // Throttles lift after their windows; a run outliving them must see
  // full capacity restored.
  if (makespan > 44.0) {
    EXPECT_DOUBLE_EQ(sim.cluster().node(0).cpu().capacity_scale(), 1.0);
    EXPECT_DOUBLE_EQ(sim.cluster().node(8).net().capacity_scale(), 1.0);
  }
  // Slowdowns lose no state: nothing should ever be recomputed.
  EXPECT_EQ(sim.recomputed_partitions(), 0u);
  expect_recovered_completion(sim, app);
}

TEST_P(FaultPlansEverySched, HeartbeatDropWindow) {
  SimulationConfig cfg;
  cfg.scheduler = GetParam();
  cfg.enable_trace = true;
  cfg.faults = parse_fault_spec("hbdrop@10:node=4:for=6");
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 10.0);
  ASSERT_NE(sim.trace(), nullptr);
  EXPECT_EQ(sim.trace()->count(TraceEventType::kFaultInjected), 1u);
  if (makespan > 20.0) {
    // 6 s of silence at a 1 s heartbeat period trips the 3-missed-beats
    // threshold, and the node must come back once beats resume.
    EXPECT_GE(sim.trace()->count(TraceEventType::kNodeDead), 1u);
    EXPECT_GE(sim.trace()->count(TraceEventType::kNodeRecovered), 1u);
  }
  // The node never actually died: no outputs lost, nothing recomputed.
  EXPECT_EQ(sim.recomputed_partitions(), 0u);
  expect_recovered_completion(sim, app);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FaultPlansEverySched,
                         ::testing::ValuesIn(kAllSchedulers),
                         [](const ::testing::TestParamInfo<SchedulerKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FaultRecovery, CrashResubmitsLostMapOutputPartitions) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.enable_trace = true;
  cfg.faults = parse_fault_spec("crash@20:node=3");
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 20.0);
  // TeraSort's map stage finishes well before t=20 on a 12-node cluster
  // (about t=11), so node 3 holds registered shuffle outputs when it dies.
  EXPECT_GT(sim.recomputed_partitions(), 0u);
  EXPECT_GE(sim.trace()->count(TraceEventType::kPartitionResubmitted),
            sim.recomputed_partitions());
  expect_recovered_completion(sim, app);
}

TEST(FaultPlanSpec, ParsesMultiEventSpecSortedByTime) {
  FaultPlan plan = parse_fault_spec(
      "crash@60:node=3:down=40;slow@30:node=0:res=cpu:factor=0.3:for=60");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(plan.events[0].time, 30.0);
  EXPECT_EQ(plan.events[0].node, 0);
  EXPECT_EQ(plan.events[0].resource, ResourceKind::kCpu);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 0.3);
  EXPECT_DOUBLE_EQ(plan.events[0].duration, 60.0);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(plan.events[1].time, 60.0);
  EXPECT_EQ(plan.events[1].node, 3);
  EXPECT_DOUBLE_EQ(plan.events[1].duration, 40.0);
  plan.validate(12);  // must not throw
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("crash:node=1"), std::invalid_argument);   // no @time
  EXPECT_THROW(parse_fault_spec("meteor@10:node=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@10"), std::invalid_argument);       // no node
  EXPECT_THROW(parse_fault_spec("crash@abc:node=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("slow@10:node=1:res=gpu"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@10:node=1:bogus=3"), std::invalid_argument);
  // Numbers are read whole and finite, so no event runs at time NaN and
  // node=1.7 does not become node 1.
  EXPECT_THROW(parse_fault_spec("crash@nan:node=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@inf:node=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@10:node=1.7"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@10:node=1:down=inf"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("slow@10:node=1:res=cpu:factor=nan:for=5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash@ 10:node=1"), std::invalid_argument);
}

TEST(FaultPlanSpec, ValidateRejectsOutOfRangeValues) {
  FaultPlan plan = parse_fault_spec("slow@10:node=1:res=cpu:factor=1.5");
  EXPECT_THROW(plan.validate(12), std::invalid_argument);  // factor > 1
  plan = parse_fault_spec("crash@10:node=12");
  EXPECT_THROW(plan.validate(12), std::invalid_argument);  // node out of range
  plan.validate(13);
  // A NaN passes "< 0" and "(0, 1]" checks, so plans built in code are
  // checked for finite values too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double FaultEvent::*field :
       {&FaultEvent::time, &FaultEvent::duration, &FaultEvent::factor}) {
    plan = parse_fault_spec("slow@10:node=1:res=cpu:factor=0.5:for=5");
    plan.events[0].*field = nan;
    EXPECT_THROW(plan.validate(12), std::invalid_argument);
  }
}

TEST(ChaosPlan, SameSeedSamePlan) {
  FaultPlan a = make_chaos_plan(42, 12);
  FaultPlan b = make_chaos_plan(42, 12);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
    EXPECT_DOUBLE_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
  }
  FaultPlan c = make_chaos_plan(43, 12);
  bool differs = a.events.size() != c.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].kind != c.events[i].kind || a.events[i].time != c.events[i].time ||
              a.events[i].node != c.events[i].node;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(ChaosPlan, CrashesBoundedToHalfTheClusterOnDistinctNodes) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    FaultPlan plan = make_chaos_plan(seed, 12);
    plan.validate(12);
    std::set<NodeId> crashed;
    for (const auto& e : plan.events) {
      if (e.kind != FaultKind::kCrash) continue;
      EXPECT_TRUE(crashed.insert(e.node).second) << "seed " << seed << ": repeated crash node";
      EXPECT_GT(e.duration, 0.0) << "chaos crashes must self-recover";
    }
    EXPECT_LE(crashed.size(), 6u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rupam
