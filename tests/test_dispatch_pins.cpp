// Outcome pins for the RUPAM and StageAware dispatch paths.
//
// The golden traces cover only PageRank and FleetE2E covers only TeraSort,
// so these pin the runs that exercise the rest of both selection rules:
// RUPAM's GPU race (GM), DB_task_char locks and PROCESS_LOCAL rows (LR,
// KMeans), the memory guard and straggler relocation (PR), each ablation
// toggle, FAIR pools, and StageAware's capability ranking with speculation
// on. The values were re-captured when dispatch rounds stopped following
// heartbeats (a launch now happens when it becomes possible, not at the
// next beat), and the executed-event counts again when beats became a
// computed grid (a beat no listener can act on is no event); every fast
// path since must keep them: a makespan must match to the last bit (hex
// float), and launches, executed events and GPU races exactly. A failure prints the actual values in the same
// form, so a deliberate behaviour change can re-pin in one step.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "app/arrivals.hpp"
#include "app/cli.hpp"
#include "app/simulation.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

struct Outcome {
  SimTime makespan = 0.0;
  std::size_t launches = 0;
  std::size_t events = 0;
  std::size_t gpu_races = 0;
};

std::string describe(const Outcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{%a, %zu, %zu, %zu}", o.makespan, o.launches, o.events,
                o.gpu_races);
  return buf;
}

void expect_pinned(const std::string& label, const Outcome& actual, const Outcome& pin) {
  EXPECT_EQ(actual.makespan, pin.makespan) << label << " actual " << describe(actual);
  EXPECT_EQ(actual.launches, pin.launches) << label << " actual " << describe(actual);
  EXPECT_EQ(actual.events, pin.events) << label << " actual " << describe(actual);
  EXPECT_EQ(actual.gpu_races, pin.gpu_races) << label << " actual " << describe(actual);
}

Outcome outcome_of(Simulation& sim, SimTime makespan) {
  Outcome o;
  o.makespan = makespan;
  o.launches = sim.scheduler().launches();
  o.events = sim.sim().executed_events();
  if (RupamScheduler* rupam = sim.rupam_scheduler()) o.gpu_races = rupam->gpu_races();
  return o;
}

/// One Table III workload on the 12-node Hydra preset, speculation on (the
/// default), seed 1 — the CLI's `--workload W --scheduler S` run.
Outcome run_hydra(SchedulerKind kind, const char* workload,
                  const std::function<void(SimulationConfig&)>& tweak = {}) {
  SimulationConfig cfg;
  cfg.scheduler = kind;
  if (tweak) tweak(cfg);
  Simulation sim(cfg);
  Application app = build_workload(workload_preset(workload), sim.cluster().node_ids(),
                                   /*seed=*/1, /*iterations_override=*/0,
                                   hdfs_placement_weights(sim.cluster()));
  SimTime makespan = sim.run(app);
  return outcome_of(sim, makespan);
}

TEST(DispatchPins, RupamWorkloads) {
  struct Pin {
    const char* workload;
    Outcome outcome;
  };
  const Pin pins[] = {
      {"GM", {0x1.35230c3cd33b1p+6, 434, 590, 290}},
      {"LR", {0x1.0b38061d2a2ebp+9, 2362, 8720, 0}},
      {"KMeans", {0x1.2a50bda3ad593p+10, 2784, 6836, 990}},
      {"PR", {0x1.0e790713e3f44p+8, 985, 3973, 0}},
  };
  for (const Pin& pin : pins) {
    expect_pinned(std::string("RUPAM ") + pin.workload,
                  run_hydra(SchedulerKind::kRupam, pin.workload), pin.outcome);
  }
}

TEST(DispatchPins, RupamAblations) {
  struct Pin {
    const char* toggle;
    bool RupamConfig::*flag;
    Outcome outcome;
  };
  const Pin pins[] = {
      {"opt_executor_lock", &RupamConfig::opt_executor_lock,
       {0x1.3b815aa7bd0bcp+9, 2479, 9016, 0}},
      {"memory_guard", &RupamConfig::memory_guard, {0x1.2ad8d49473947p+9, 2361, 8709, 0}},
      {"gpu_cpu_race", &RupamConfig::gpu_cpu_race, {0x1.0b38061d2a2ebp+9, 2362, 8720, 0}},
      {"overcommit", &RupamConfig::overcommit, {0x1.45d0e341f7e76p+9, 2372, 8768, 0}},
  };
  for (const Pin& pin : pins) {
    Outcome actual = run_hydra(SchedulerKind::kRupam, "LR", [&](SimulationConfig& cfg) {
      cfg.rupam.*pin.flag = false;
    });
    expect_pinned(std::string("RUPAM LR without ") + pin.toggle, actual, pin.outcome);
  }
}

TEST(DispatchPins, RupamFairTwoTenantStream) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.pools.policy = PoolPolicy::kFair;
  Simulation sim(cfg);
  ArrivalConfig arrivals;
  arrivals.rate = 0.2;
  arrivals.duration = 60.0;
  arrivals.tenants = 2;
  arrivals.seed = 5;
  arrivals.iterations_override = 1;
  arrivals.mix = {"LR", "GM", "TeraSort"};
  arrivals.max_apps = 4;
  SubmissionStream stream = make_poisson_stream(arrivals, sim.cluster().node_ids());
  ASSERT_GE(stream.size(), 2u);
  TenantRunReport report = sim.run(stream);
  expect_pinned("RUPAM FAIR stream", outcome_of(sim, report.makespan),
                {0x1.c06d30299769fp+7, 2530, 12015, 0});
}

TEST(DispatchPins, StageAwareWorkloads) {
  struct Pin {
    const char* workload;
    Outcome outcome;
  };
  const Pin pins[] = {
      {"GM", {0x1.3abba5eadee43p+6, 147, 550, 0}},
      {"KMeans", {0x1.1b6b679998105p+12, 1650, 6613, 0}},
  };
  for (const Pin& pin : pins) {
    expect_pinned(std::string("StageAware ") + pin.workload,
                  run_hydra(SchedulerKind::kStageAware, pin.workload), pin.outcome);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The decision audit of `rupam_sim --workload GM --scheduler S --seed 1
/// --explain F.csv`: every launch's reason, rank and candidate list. The
/// fixtures under tests/golden/ were captured before the fast paths
/// changed, so the audited path must still rank and record identically.
class ExplainPinTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExplainPinTest, DecisionCsvByteIdentical) {
  const char* scheduler = GetParam();
  std::string path = ::testing::TempDir() + "/explain_GM_" + scheduler + ".csv";
  CliOptions opts;
  opts.run.workload = "GM";
  opts.run.workload_explicit = true;
  opts.run.scheduler = *scheduler_kind_from_name(scheduler);
  opts.run.seed = 1;
  opts.explain_out = path;
  std::ostringstream out, err;
  ASSERT_EQ(run_cli(opts, out, err), 0) << err.str();
  std::string expected =
      read_file(std::string(RUPAM_TEST_DATA_DIR) + "/golden/explain_GM_" + scheduler + ".csv");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(path), expected) << "decision audit drifted from the golden capture";
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RupamAndStageAware, ExplainPinTest,
                         ::testing::Values("rupam", "stageaware"));

}  // namespace
}  // namespace rupam
