// FleetSpec generation, JSON round-trip, and the fleet-scale e2e smoke.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "app/simulation.hpp"
#include "cluster/fleet.hpp"
#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

void expect_same_spec(const NodeSpec& a, const NodeSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.node_class, b.node_class);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_DOUBLE_EQ(a.cpu_ghz, b.cpu_ghz);
  EXPECT_DOUBLE_EQ(a.cpu_perf, b.cpu_perf);
  EXPECT_DOUBLE_EQ(a.memory, b.memory);
  EXPECT_DOUBLE_EQ(a.net_bandwidth, b.net_bandwidth);
  EXPECT_EQ(a.has_ssd, b.has_ssd);
  EXPECT_DOUBLE_EQ(a.disk_read_bw, b.disk_read_bw);
  EXPECT_DOUBLE_EQ(a.disk_write_bw, b.disk_write_bw);
  EXPECT_DOUBLE_EQ(a.disk_capacity, b.disk_capacity);
  EXPECT_EQ(a.gpus, b.gpus);
  EXPECT_DOUBLE_EQ(a.gpu_speedup, b.gpu_speedup);
}

TEST(Fleet, GenerationIsDeterministic) {
  FleetSpec spec = scaled_hydra_fleet(100, /*seed=*/1);
  std::vector<NodeSpec> a = generate_fleet(spec);
  std::vector<NodeSpec> b = generate_fleet(spec);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_spec(a[i], b[i]);
}

TEST(Fleet, SeedChangesJitteredFields) {
  std::vector<NodeSpec> a = generate_fleet(scaled_hydra_fleet(50, 1));
  std::vector<NodeSpec> b = generate_fleet(scaled_hydra_fleet(50, 2));
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cpu_ghz != b[i].cpu_ghz) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Fleet, HydraSpecMatchesHandBuiltPreset) {
  // generate_fleet(hydra_fleet_spec()) must stay byte-identical to
  // build_hydra — the golden traces depend on it.
  Simulator sim;
  Cluster cluster(sim);
  std::vector<NodeId> ids = build_hydra(cluster);
  std::vector<NodeSpec> generated = generate_fleet(hydra_fleet_spec());
  ASSERT_EQ(generated.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_same_spec(generated[i], cluster.node(ids[i]).spec());
  }
}

TEST(Fleet, ScaledFleetKeepsHydraRatioAndGpus) {
  FleetSpec spec = scaled_hydra_fleet(200, 1);
  EXPECT_EQ(spec.total_nodes(), 200);
  std::vector<NodeSpec> nodes = generate_fleet(spec);
  int thor = 0, hulk = 0, stack = 0, gpus = 0;
  for (const NodeSpec& n : nodes) {
    if (n.node_class == "thor") ++thor;
    if (n.node_class == "hulk") ++hulk;
    if (n.node_class == "stack") ++stack;
    gpus += n.gpus;
  }
  EXPECT_EQ(thor, 100);
  EXPECT_EQ(hulk, 66);
  EXPECT_EQ(stack, 34);
  // Every scaled fleet must keep at least one GPU-bearing node, or the
  // RUPAM GPU queue becomes dead code at scale.
  EXPECT_GT(gpus, 0);
}

TEST(Fleet, AddingAClassDoesNotReshuffleEarlierOnes) {
  FleetSpec spec = scaled_hydra_fleet(60, 7);
  std::vector<NodeSpec> before = generate_fleet(spec);
  NodeClassMix extra;
  extra.name = "extra";
  extra.count = 3;
  extra.base = thor_spec();
  spec.classes.push_back(extra);
  std::vector<NodeSpec> after = generate_fleet(spec);
  ASSERT_EQ(after.size(), before.size() + 3u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    expect_same_spec(before[i], after[i]);
  }
}

TEST(Fleet, JsonRoundTripPreservesGeneratedFleet) {
  FleetSpec spec = scaled_hydra_fleet(100, 3);
  FleetSpec parsed = parse_fleet_json(fleet_to_json(spec));
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.seed, spec.seed);
  std::vector<NodeSpec> a = generate_fleet(spec);
  std::vector<NodeSpec> b = generate_fleet(parsed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_spec(a[i], b[i]);
  // And the serialized form is a fixed point.
  EXPECT_EQ(fleet_to_json(spec), fleet_to_json(parsed));
}

TEST(Fleet, ValidateRejectsBadSpecs) {
  FleetSpec ok = hydra_fleet_spec();
  EXPECT_NO_THROW(ok.validate());

  FleetSpec unnamed = ok;
  unnamed.name.clear();
  EXPECT_THROW(unnamed.validate(), std::runtime_error);

  FleetSpec empty = ok;
  empty.classes.clear();
  EXPECT_THROW(empty.validate(), std::runtime_error);

  FleetSpec zero_count = ok;
  zero_count.classes[0].count = 0;
  EXPECT_THROW(zero_count.validate(), std::runtime_error);

  FleetSpec dup = ok;
  dup.classes[1].name = dup.classes[0].name;
  EXPECT_THROW(dup.validate(), std::runtime_error);

  FleetSpec bad_jitter = ok;
  bad_jitter.classes[0].cpu_jitter = 1.0;  // must be < 1
  EXPECT_THROW(bad_jitter.validate(), std::runtime_error);

  FleetSpec bad_mem = ok;
  bad_mem.classes[0].base.memory = 0.0;
  EXPECT_THROW(bad_mem.validate(), std::runtime_error);
}

TEST(Fleet, ParserRejectsMalformedJson) {
  // Unknown keys are errors, not warnings — a typoed jitter knob must not
  // silently produce an un-jittered fleet.
  EXPECT_THROW(parse_fleet_json("{"), std::runtime_error);
  EXPECT_THROW(parse_fleet_json("[1, 2]"), std::runtime_error);
  EXPECT_THROW(parse_fleet_json(R"({"name": "x"})"), std::runtime_error);
  EXPECT_THROW(parse_fleet_json(R"({"name": "x", "bogus": 1, "classes": []})"),
               std::runtime_error);
  EXPECT_THROW(
      parse_fleet_json(
          R"({"name": "x", "classes": [{"name": "a", "base": "thor", "count": 1, "cpu_jitterr": 0.1}]})"),
      std::runtime_error);
  // Type mismatches.
  EXPECT_THROW(parse_fleet_json(R"({"name": 3, "classes": []})"), std::runtime_error);
  EXPECT_THROW(
      parse_fleet_json(R"({"name": "x", "classes": [{"name": "a", "base": "thor", "count": 1.5}]})"),
      std::runtime_error);
  // Out of int's range: rejected before any float-to-int cast.
  EXPECT_THROW(
      parse_fleet_json(R"({"name": "x", "classes": [{"name": "a", "base": "thor", "count": 1e10}]})"),
      std::runtime_error);
  EXPECT_THROW(
      parse_fleet_json(R"({"name": "x", "classes": [{"name": "a", "base": "xeon", "count": 1}]})"),
      std::runtime_error);
  EXPECT_THROW(parse_fleet_json(R"({"name": "x", "seed": -1, "classes": []})"),
               std::runtime_error);
}

TEST(Fleet, SeedParsesExactly) {
  auto with_seed = [](const std::string& seed) {
    return parse_fleet_json(R"({"name": "x", "seed": )" + seed +
                            R"(, "classes": [{"name": "a", "base": "thor", "count": 1}]})");
  };
  EXPECT_EQ(with_seed("9007199254740992").seed, kMaxSeed);
  EXPECT_THROW(with_seed("9007199254740993"), std::runtime_error);
  EXPECT_THROW(with_seed("1.5"), std::runtime_error);
}

TEST(Fleet, ScaledFleetRejectsTinyCounts) {
  EXPECT_THROW(scaled_hydra_fleet(2, 1), std::runtime_error);
}

// All four schedulers complete every task on a generated 200-node fleet.
// TeraSort, not PR: the memory-oblivious baselines are deliberately
// OOM-prone under PR, and at fleet scale that turns a smoke test into a
// livelock reproduction.
TEST(FleetE2E, TwoHundredNodeSmokeAllSchedulers) {
  FleetSpec spec = scaled_hydra_fleet(200, 1);
  std::vector<NodeSpec> nodes = generate_fleet(spec);
  WorkloadPreset preset = workload_preset("TeraSort");
  preset.input_gb = 25.0;  // 200 map + 200 reduce tasks, ~2 waves

  for (SchedulerKind kind : {SchedulerKind::kFifo, SchedulerKind::kSpark,
                             SchedulerKind::kStageAware, SchedulerKind::kRupam}) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    cfg.nodes = nodes;
    if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
    Simulation sim(cfg);
    Application app =
        build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                       /*iterations_override=*/0, hdfs_placement_weights(sim.cluster()));
    SimTime makespan = sim.run(app);
    EXPECT_GT(makespan, 0.0) << sim.scheduler().name();
    std::set<std::pair<StageId, int>> done;
    for (const auto& m : sim.scheduler().completed()) {
      EXPECT_TRUE(done.emplace(m.stage, m.partition).second) << sim.scheduler().name();
    }
    EXPECT_EQ(done.size(), app.total_tasks()) << sim.scheduler().name();
  }
}

// A round walks only the nodes that may have a free slot and drops the
// full ones it meets, so FIFO and Spark pay a few node visits per launched
// attempt however large the fleet: 2.0 and 2.5 here, where a wave is two
// tasks per node and the pass that ends a round revisits the free nodes
// (a walk over every node per round would cost ~200 visits per launch).
TEST(FleetE2E, NodeVisitsPerLaunchBounded) {
  FleetSpec spec = scaled_hydra_fleet(200, 1);
  std::vector<NodeSpec> nodes = generate_fleet(spec);
  WorkloadPreset preset = workload_preset("TeraSort");
  preset.input_gb = 25.0;

  for (SchedulerKind kind : {SchedulerKind::kFifo, SchedulerKind::kSpark}) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    cfg.nodes = nodes;
    cfg.speculation.enabled = false;  // straggler scans are a separate subsystem
    if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
    Simulation sim(cfg);
    Application app =
        build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                       /*iterations_override=*/0, hdfs_placement_weights(sim.cluster()));
    sim.run(app);
    const auto& work = sim.scheduler().dispatch_work();
    std::size_t launches = sim.scheduler().launches();
    ASSERT_GT(launches, 0u) << sim.scheduler().name();
    EXPECT_LE(work.node_visits, 3 * launches)
        << sim.scheduler().name() << ": node_visits=" << work.node_visits
        << " launches=" << launches;
  }
}

// Fleet-scale identity pins, re-captured when dispatch rounds stopped
// following heartbeats: later dispatch paths must change cost, never a
// placement. The golden traces run only the
// 12-node Hydra cluster, which never reaches the ties a 200-node fleet
// of near-identical nodes produces.
TEST(FleetE2E, FleetScaleOutcomesMatchPins) {
  struct Pin {
    SchedulerKind kind;
    bool speculation;
    double makespan;
    std::size_t launches;
    std::size_t events;
  };
  const Pin pins[] = {
      {SchedulerKind::kSpark, true, 0x1.0a4c4062d6071p+5, 500, 8715},
      {SchedulerKind::kRupam, true, 0x1.83e9a08b49cd1p+5, 409, 11717},
      {SchedulerKind::kStageAware, true, 0x1.16c917a283e0ep+5, 409, 8987},
      {SchedulerKind::kFifo, true, 0x1.0657857767fc4p+5, 500, 8616},
      {SchedulerKind::kHeft, true, 0x1.1180075903fb4p+5, 408, 8850},
      {SchedulerKind::kSpark, false, 0x1.523a187f4e924p+5, 400, 10456},
      {SchedulerKind::kRupam, false, 0x1.83e9a08b49cd1p+5, 400, 11698},
      {SchedulerKind::kStageAware, false, 0x1.16c917a283e0ep+5, 400, 8970},
      {SchedulerKind::kFifo, false, 0x1.475cb6cd38f35p+5, 400, 10185},
      {SchedulerKind::kHeft, false, 0x1.1180075903fb4p+5, 400, 8838},
  };
  FleetSpec spec = scaled_hydra_fleet(200, 1);
  std::vector<NodeSpec> nodes = generate_fleet(spec);
  WorkloadPreset preset = workload_preset("TeraSort");
  preset.input_gb = 25.0;

  for (const Pin& pin : pins) {
    SimulationConfig cfg;
    cfg.scheduler = pin.kind;
    cfg.nodes = nodes;
    cfg.speculation.enabled = pin.speculation;
    if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
    Simulation sim(cfg);
    Application app =
        build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                       /*iterations_override=*/0, hdfs_placement_weights(sim.cluster()));
    SimTime makespan = sim.run(app);
    std::string label = sim.scheduler().name() + (pin.speculation ? " +spec" : " -spec");
    EXPECT_EQ(makespan, pin.makespan) << label;
    EXPECT_EQ(sim.scheduler().launches(), pin.launches) << label;
    EXPECT_EQ(sim.sim().executed_events(), pin.events) << label;
  }
}

}  // namespace
}  // namespace rupam
