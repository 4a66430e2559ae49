// Seeded chaos property tests: random fault plans across schedulers must
// never break completion invariants, and a fixed seed must reproduce a
// byte-identical event trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "fault_invariants.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

constexpr SchedulerKind kAllSchedulers[] = {SchedulerKind::kSpark, SchedulerKind::kRupam,
                                            SchedulerKind::kStageAware, SchedulerKind::kFifo};

Application shrunk_workload(Simulation& sim, const char* name, std::uint64_t seed) {
  const WorkloadPreset& preset = workload_preset(name);
  WorkloadParams params;
  params.input_gb = preset.input_gb / 16.0;
  params.iterations = std::min(preset.iterations, 2);
  params.seed = seed;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  return preset.factory(sim.cluster().node_ids(), params);
}

class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeeds, RandomFaultsNeverBreakCompletion) {
  const std::uint64_t seed = GetParam();
  SimulationConfig cfg;
  // Spread the 20 seeds over all four schedulers and two workload shapes
  // (shuffle-heavy TeraSort, iterative LR).
  cfg.scheduler = kAllSchedulers[seed % 4];
  cfg.chaos_seed = seed;
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, seed % 2 == 0 ? "TeraSort" : "LR", seed);
  SimTime makespan = sim.run(app);
  EXPECT_GT(makespan, 0.0);
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_FALSE(sim.injector()->plan().empty());
  expect_recovered_completion(sim, app);
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, ChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

std::string chaos_trace_csv(SchedulerKind scheduler, std::uint64_t chaos_seed) {
  SimulationConfig cfg;
  cfg.scheduler = scheduler;
  cfg.chaos_seed = chaos_seed;
  cfg.enable_trace = true;
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "TeraSort", 5);
  sim.run(app);
  std::ostringstream csv;
  sim.trace()->write_csv(csv);
  return csv.str();
}

TEST(ChaosDeterminism, FixedSeedReproducesByteIdenticalTrace) {
  for (auto scheduler : {SchedulerKind::kRupam, SchedulerKind::kSpark}) {
    std::string first = chaos_trace_csv(scheduler, 11);
    std::string second = chaos_trace_csv(scheduler, 11);
    EXPECT_GT(first.size(), 0u);
    EXPECT_EQ(first, second) << to_string(scheduler)
                             << ": same chaos seed must replay identically";
  }
}

TEST(ChaosDeterminism, DifferentChaosSeedsDiverge) {
  std::string a = chaos_trace_csv(SchedulerKind::kRupam, 11);
  std::string b = chaos_trace_csv(SchedulerKind::kRupam, 12);
  EXPECT_NE(a, b);
}

// Liveness pins: every node_dead and node_recovered row of Hydra LR under
// --chaos 1..20 and all five schedulers, as "scheduler,chaos,kind,node,
// time" with the time exact (hex float). tests/golden/chaos_liveness_LR.csv
// was captured while every heartbeat was still a kernel event, so it pins
// the grid's liveness (last beat, revival at the first audible instant,
// deaths at the sweep) to the beats it replaced.
TEST(ChaosDeterminism, LivenessRowsMatchPins) {
  LogLevel saved = Logger::level();
  Logger::set_level(LogLevel::kError);
  std::ostringstream rows;
  for (SchedulerKind kind : {SchedulerKind::kSpark, SchedulerKind::kRupam,
                             SchedulerKind::kStageAware, SchedulerKind::kFifo,
                             SchedulerKind::kHeft}) {
    for (std::uint64_t chaos = 1; chaos <= 20; ++chaos) {
      SimulationConfig cfg;
      cfg.scheduler = kind;
      cfg.chaos_seed = chaos;
      cfg.enable_trace = true;
      Simulation sim(cfg);
      Application app = build_workload(workload_preset("LR"), sim.cluster().node_ids(), 1, 0,
                                       hdfs_placement_weights(sim.cluster()));
      sim.run(app);
      for (const TraceEvent& e : sim.trace()->events()) {
        if (e.type != TraceEventType::kNodeDead && e.type != TraceEventType::kNodeRecovered) {
          continue;
        }
        char time[40];
        std::snprintf(time, sizeof time, "%a", e.time);
        rows << to_string(kind) << "," << chaos << ","
             << (e.type == TraceEventType::kNodeDead ? "dead" : "recovered") << "," << e.node
             << "," << time << "\n";
      }
    }
  }
  Logger::set_level(saved);
  std::ifstream f(std::string(RUPAM_TEST_DATA_DIR) + "/golden/chaos_liveness_LR.csv");
  ASSERT_TRUE(f.is_open());
  std::ostringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(rows.str(), expected.str());
}

}  // namespace
}  // namespace rupam
