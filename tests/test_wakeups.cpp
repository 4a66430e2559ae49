// Missed-wake-up oracle. A dispatch round runs only when something it
// reads can have changed, and conditions that relax with time get an
// exact wake-up (SchedulerBase's header lists both). With the oracle seam
// on, every heartbeat also asks for a round; a launch in a round that
// nothing but a beat asked for is a change that opened a launch without
// requesting one. Rounds launch until nothing more fits, so every run here
// must miss nothing.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "app/arrivals.hpp"
#include "app/simulation.hpp"
#include "cluster/fleet.hpp"
#include "cluster/presets.hpp"
#include "common/log.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

constexpr SchedulerKind kAllFive[] = {SchedulerKind::kSpark, SchedulerKind::kRupam,
                                      SchedulerKind::kStageAware, SchedulerKind::kFifo,
                                      SchedulerKind::kHeft};
constexpr const char* kTableIII[] = {"LR", "TeraSort", "SQL", "PR", "TC", "GM", "KMeans"};

/// Silences the executor-loss and fault warnings the runs print.
struct QuietLog {
  LogLevel saved = Logger::level();
  QuietLog() { Logger::set_level(LogLevel::kError); }
  ~QuietLog() { Logger::set_level(saved); }
};

struct OracleRun {
  std::size_t misses = 0;
  std::size_t rounds = 0;
  std::string trace_csv;
};

/// One single-application run at seed 1, the oracle on or off.
OracleRun run_app(SimulationConfig cfg, const WorkloadPreset& preset, bool oracle,
                  bool trace = false) {
  cfg.enable_trace = trace;
  Simulation sim(cfg);
  sim.scheduler().set_wakeup_oracle(oracle);
  Application app = build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                                   /*iterations_override=*/0,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  OracleRun out{sim.scheduler().missed_wakeups(), sim.scheduler().dispatch_rounds(), {}};
  if (trace) {
    std::ostringstream csv;
    sim.trace()->write_csv(csv);
    out.trace_csv = csv.str();
  }
  return out;
}

// perfbench's hydra_paper cells: every Table III workload under every
// scheduler on the 12-node Hydra preset, except HEFT x PR, which livelocks.
TEST(WakeupOracle, HydraCellsMissNothing) {
  QuietLog quiet;
  for (SchedulerKind kind : kAllFive) {
    for (const char* workload : kTableIII) {
      if (kind == SchedulerKind::kHeft && std::strcmp(workload, "PR") == 0) continue;
      SimulationConfig cfg;
      cfg.scheduler = kind;
      bool rupam = kind == SchedulerKind::kRupam;
      OracleRun run = run_app(cfg, workload_preset(workload), /*oracle=*/true, rupam);
      EXPECT_EQ(run.misses, 0u) << to_string(kind) << " " << workload;
      if (rupam) {
        // RUPAM's idle round leaves no state behind (its resource
        // round-robin turns a full cycle), so the extra rounds change
        // nothing it records.
        EXPECT_EQ(run.trace_csv,
                  run_app(cfg, workload_preset(workload), /*oracle=*/false, true).trace_csv)
            << workload;
      }
    }
  }
}

// Chaos plans crash, drop beats, slow and blacklist nodes: revival,
// overdue silences, retry backoffs and blacklist expiry all reopen work.
TEST(WakeupOracle, ChaosRunsMissNothing) {
  QuietLog quiet;
  for (SchedulerKind kind : {SchedulerKind::kSpark, SchedulerKind::kRupam,
                             SchedulerKind::kStageAware, SchedulerKind::kFifo}) {
    for (std::uint64_t chaos = 1; chaos <= 6; ++chaos) {
      SimulationConfig cfg;
      cfg.scheduler = kind;
      cfg.chaos_seed = chaos;
      EXPECT_EQ(run_app(cfg, workload_preset("LR"), /*oracle=*/true).misses, 0u)
          << to_string(kind) << " --chaos " << chaos;
    }
  }
}

TEST(WakeupOracle, FleetTeraSortMissesNothing) {
  QuietLog quiet;
  FleetSpec spec = scaled_hydra_fleet(200, 1);
  WorkloadPreset preset = workload_preset("TeraSort");
  preset.input_gb = 25.0;
  for (SchedulerKind kind : kAllFive) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    cfg.nodes = generate_fleet(spec);
    if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
    EXPECT_EQ(run_app(cfg, preset, /*oracle=*/true).misses, 0u) << to_string(kind);
  }
}

// The elastic-fleet scenario (ElasticEndToEnd in test_elastic.cpp): FAIR
// pools, autoscaled burst nodes joining and draining, fair-share preemption.
TEST(WakeupOracle, ElasticFleetMissesNothing) {
  QuietLog quiet;
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.seed = 1;
  cfg.pools.policy = PoolPolicy::kFair;
  NodeClassMix base;
  base.name = "base";
  base.count = 4;
  base.base = hulk_spec();
  base.base.hourly_cost = 1.0;
  NodeClassMix burst = base;
  burst.name = "burst";
  burst.count = 6;
  FleetSpec fleet;
  fleet.name = "elastic-base";
  fleet.seed = 1;
  fleet.classes = {base};
  cfg.nodes = generate_fleet(fleet);
  cfg.autoscale.enabled = true;
  cfg.autoscale.max_nodes = 6;
  cfg.autoscale.scale_up_step = 2;
  cfg.autoscale.boot_delay = 8.0;
  cfg.autoscale.idle_drain_after = 20.0;
  cfg.autoscale_class = burst;
  cfg.preemption.enabled = true;
  Simulation sim(cfg);
  sim.scheduler().set_wakeup_oracle(true);
  ArrivalConfig arrivals;
  arrivals.rate = 0.05;
  arrivals.duration = 240.0;
  arrivals.tenants = 3;
  arrivals.seed = 1;
  arrivals.iterations_override = 1;
  arrivals.mix = {"GM", "PR"};
  arrivals.diurnal_amplitude = 1.0;
  arrivals.diurnal_period = 120.0;
  sim.run(make_poisson_stream(arrivals, sim.cluster().node_ids()));
  ASSERT_NE(sim.autoscaler(), nullptr);
  EXPECT_GT(sim.autoscaler()->scale_ups(), 0u);
  EXPECT_EQ(sim.scheduler().missed_wakeups(), 0u);
}

}  // namespace
}  // namespace rupam
