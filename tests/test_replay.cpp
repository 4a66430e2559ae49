// Counterfactual replay layer (src/replay/) and the RunSpec API behind it:
// strict round-trips, checkpoint-as-deterministic-re-execution, branch
// grammar and interventions, and the what-if advisor. Suite names all
// start with "Replay" so CI can select them (`ctest -R '^Replay'`) for
// the TSan job — the advisor's worker pool runs here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "app/cli.hpp"
#include "app/run_spec.hpp"
#include "app/simulation.hpp"
#include "common/json_reader.hpp"
#include "common/rng.hpp"
#include "metrics/event_trace.hpp"
#include "obs/analyzer.hpp"
#include "replay/branch.hpp"
#include "replay/checkpoint.hpp"
#include "replay/whatif.hpp"

namespace rupam {
namespace {

/// The paper's Fig 3 motivation pair (examples/motivation_fleet.json):
/// one slow-CPU node, one fast-CPU node behind a 10 Gb/s switch.
FleetSpec motivation_fleet() {
  return parse_fleet_json(R"({
    "name": "motivation-pair",
    "seed": 1,
    "switch_gbps": 10,
    "classes": [
      {"name": "slow-cpu", "count": 1, "base": "thor", "cores": 16,
       "cpu_ghz": 1.6, "cpu_perf": 0.67, "memory_gb": 48, "net_gbps": 1,
       "ssd": false},
      {"name": "fast-cpu", "count": 1, "base": "thor", "cores": 16,
       "cpu_ghz": 2.4, "cpu_perf": 1.0, "memory_gb": 48, "net_gbps": 10,
       "ssd": false}
    ]
  })");
}

/// Small, fast, heterogeneity-sensitive run used throughout: SQL under
/// stock Spark on the motivation pair.
RunSpec sql_on_pair() {
  RunSpec spec;
  spec.workload = "SQL";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kSpark;
  spec.fleet_spec = motivation_fleet();
  return spec;
}

std::string trace_csv(const Simulation& sim) {
  std::ostringstream os;
  sim.trace()->write_csv(os);
  return os.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  ASSERT_TRUE(f) << path;
  f << text;
}

// --------------------------------------------------------------------------
// RunSpec: strict JSON round-trip, the single source of truth.

TEST(ReplayRunSpec, RoundTripIsByteIdentical) {
  RunSpec spec = sql_on_pair();
  spec.iterations = 3;
  spec.seed = 42;
  spec.sample_utilization = true;
  spec.faults = "crash@50:node=0:down=40";
  spec.chaos_seed = 7;
  spec.autoscale = 4;
  spec.preempt = true;
  std::string once = run_spec_to_json(spec);
  RunSpec reparsed = parse_run_spec_json(once);
  EXPECT_EQ(run_spec_to_json(reparsed), once);
  EXPECT_EQ(reparsed.workload, "SQL");
  EXPECT_EQ(reparsed.scheduler, SchedulerKind::kSpark);
  EXPECT_EQ(reparsed.seed, 42u);
  ASSERT_TRUE(reparsed.fleet_spec.has_value());
  EXPECT_EQ(reparsed.fleet_spec->classes.size(), 2u);
}

TEST(ReplayRunSpec, DefaultSpecRoundTrips) {
  RunSpec spec;
  std::string once = run_spec_to_json(spec);
  EXPECT_EQ(run_spec_to_json(parse_run_spec_json(once)), once);
  // "workload" is serialized only when explicitly set (CLI parity).
  EXPECT_EQ(once.find("\"workload\""), std::string::npos);
}

TEST(ReplayRunSpec, RejectsUnknownKeys) {
  EXPECT_THROW(parse_run_spec_json(R"({"workload": "PR", "bogus": 1})"), std::runtime_error);
}

TEST(ReplayRunSpec, RejectsMalformedJson) {
  EXPECT_THROW(parse_run_spec_json("{nope"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json("[1, 2]"), std::runtime_error);
}

TEST(ReplayRunSpec, RejectsInvalidFields) {
  EXPECT_THROW(parse_run_spec_json(R"({"seed": -1})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"scheduler": "yarn"})"), std::runtime_error);
  RunSpec both;
  both.fleet = "fleet.json";
  both.fleet_spec = motivation_fleet();
  EXPECT_THROW(both.validate(), std::runtime_error);
  RunSpec unknown_workload;
  unknown_workload.workload = "NoSuchWorkload";
  EXPECT_THROW(unknown_workload.validate(), std::runtime_error);
}

// A seed read through a double rounds 2^53 + 1 down to 2^53, and the
// restored run then diverges from its pins; such seeds are rejected.
TEST(ReplayRunSpec, SeedsParseExactlyUpToTwoToThe53) {
  EXPECT_EQ(parse_run_spec_json(R"({"seed": 9007199254740992})").seed, kMaxSeed);
  EXPECT_EQ(parse_run_spec_json(R"({"chaos_seed": 9007199254740992})").chaos_seed, kMaxSeed);
  EXPECT_THROW(parse_run_spec_json(R"({"seed": 9007199254740993})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"chaos_seed": 9007199254740993})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"seed": 1.5})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"seed": 1e3})"), std::runtime_error);
}

// A run described by flags and the same run loaded by --config are one
// RunSpec: flags parse straight into it, so there is no projection to
// drift.
TEST(ReplayRunSpec, FlagsAndConfigParseToTheSameSpec) {
  RunSpec spec;
  spec.workload = "SQL";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kHeft;
  spec.fleet = "fleets/parity.json";  // never loaded at parse time
  spec.iterations = 3;
  spec.seed = 42;
  spec.sample_utilization = true;
  spec.faults = "crash@50:node=0:down=40";
  spec.chaos_seed = 7;
  spec.arrivals = 0.25;
  spec.tenants = 3;
  spec.pool_policy = PoolPolicy::kFair;
  spec.duration = 90.5;
  spec.diurnal = 0.25;
  spec.diurnal_period = 45.0;
  spec.autoscale = 4;
  spec.spot_plan = "spot@20:node=1:notice=5";
  spec.preempt = true;
  const std::string json = run_spec_to_json(spec);
  // Every field is off its default: no line of the default spec's JSON
  // survives here. (fleet_spec has no flag; --fleet beating it is below.)
  std::set<std::string> lines;
  std::istringstream spec_lines(json);
  for (std::string line; std::getline(spec_lines, line);) lines.insert(line);
  std::istringstream default_lines(run_spec_to_json(RunSpec{}));
  for (std::string line; std::getline(default_lines, line);) {
    if (line.find(':') != std::string::npos) {
      EXPECT_EQ(lines.count(line), 0u) << line;
    }
  }

  std::ostringstream err;
  auto by_flags = parse_cli(
      {"--workload", "SQL", "--scheduler", "heft", "--fleet", "fleets/parity.json",
       "--iterations", "3", "--seed", "42", "--sample", "--faults", "crash@50:node=0:down=40",
       "--chaos", "7", "--arrivals", "0.25", "--tenants", "3", "--pool-policy", "fair",
       "--duration", "90.5", "--diurnal", "0.25", "--diurnal-period", "45", "--autoscale", "4",
       "--spot-plan", "spot@20:node=1:notice=5", "--preempt"},
      err);
  ASSERT_TRUE(by_flags.has_value()) << err.str();
  EXPECT_EQ(run_spec_to_json(by_flags->run), json);

  std::string path = temp_path("replay_parity_config.json");
  write_file(path, json);
  auto by_config = parse_cli({"--config", path}, err);
  ASSERT_TRUE(by_config.has_value()) << err.str();
  EXPECT_EQ(run_spec_to_json(by_config->run), json);

  // --fleet beats a fleet embedded in the --config spec.
  std::string embedded = temp_path("replay_parity_embedded.json");
  write_file(embedded, run_spec_to_json(sql_on_pair()));
  auto overridden = parse_cli({"--config", embedded, "--fleet", "fleets/other.json"}, err);
  ASSERT_TRUE(overridden.has_value()) << err.str();
  EXPECT_EQ(overridden->run.fleet, "fleets/other.json");
  EXPECT_FALSE(overridden->run.fleet_spec.has_value());
  std::remove(path.c_str());
  std::remove(embedded.c_str());
}

// A literal past DBL_MAX used to read as inf ("duration": 1e999 never
// ended a run), and an int field past int's range went through an
// out-of-range float-to-int cast.
TEST(ReplayRunSpec, RejectsNumbersOutOfRange) {
  EXPECT_THROW(parse_json("1e999"), JsonParseError);
  EXPECT_THROW(parse_json("[-1e999]"), JsonParseError);
  EXPECT_THROW(parse_run_spec_json(R"({"duration": 1e999})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"arrivals": 1e999})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"iterations": 1e10})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"tenants": -3000000000})"), std::runtime_error);
  EXPECT_THROW(parse_run_spec_json(R"({"autoscale": 2.5})"), std::runtime_error);
  EXPECT_EQ(parse_run_spec_json(R"({"iterations": 2e0})").iterations, 2);
  EXPECT_EQ(json_integer<int>(parse_json("2147483647")), 2147483647);
  EXPECT_FALSE(json_integer<int>(parse_json("2147483648")).has_value());
  EXPECT_FALSE(json_integer<long long>(parse_json("9223372036854775808")).has_value());
  EXPECT_FALSE(json_integer<std::uint64_t>(parse_json("-1")).has_value());

  std::string path = temp_path("replay_overflow_config.json");
  write_file(path, R"({"arrivals": 1, "duration": 1e999})");
  std::ostringstream err;
  EXPECT_FALSE(parse_cli({"--config", path}, err).has_value());
  const std::string message = err.str();
  EXPECT_EQ(std::count(message.begin(), message.end(), '\n'), 1) << message;
  std::remove(path.c_str());
}

TEST(ReplayRunSpec, ConfigFlagLoadsAndFlagsOverride) {
  RunSpec spec;
  spec.workload = "SQL";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kSpark;
  spec.seed = 7;
  std::string path = temp_path("replay_runspec_config.json");
  write_file(path, run_spec_to_json(spec));

  std::ostringstream err;
  auto opts = parse_cli({"--config", path, "--seed", "9"}, err);
  ASSERT_TRUE(opts.has_value()) << err.str();
  EXPECT_EQ(opts->run.workload, "SQL");
  EXPECT_EQ(opts->run.scheduler, SchedulerKind::kSpark);
  EXPECT_EQ(opts->run.seed, 9u);  // flag beats config

  // Position does not matter: flags override wherever --config sits.
  auto opts2 = parse_cli({"--seed", "9", "--config", path}, err);
  ASSERT_TRUE(opts2.has_value()) << err.str();
  EXPECT_EQ(opts2->run.seed, 9u);

  auto bad = parse_cli({"--config", temp_path("replay_no_such_file.json")}, err);
  EXPECT_FALSE(bad.has_value());
}

// --------------------------------------------------------------------------
// Checkpointing: capture at T, restore, run to end ≡ straight run.

TEST(ReplayCheckpoint, RestoreReproducesStraightRunByteForByte) {
  RunSpec spec = sql_on_pair();

  SimulationConfig obs;
  obs.enable_trace = true;
  ReplayRun straight = start_replay_run(spec, obs);
  SimTime straight_makespan = straight.sim->finish();
  std::string straight_trace = trace_csv(*straight.sim);

  Checkpoint cp = capture_checkpoint(spec, straight_makespan / 2.0);
  EXPECT_GT(cp.pins.size(), 0u);
  ASSERT_TRUE(cp.run.fleet_spec.has_value());  // checkpoints embed the fleet

  ReplayRun restored = restore_checkpoint(cp, obs);
  SimTime restored_makespan = restored.sim->finish();
  EXPECT_DOUBLE_EQ(restored_makespan, straight_makespan);
  EXPECT_EQ(trace_csv(*restored.sim), straight_trace);
}

TEST(ReplayCheckpoint, JsonRoundTripIsByteIdentical) {
  Checkpoint cp = capture_checkpoint(sql_on_pair(), 50.0);
  std::string once = checkpoint_to_json(cp);
  Checkpoint reparsed = parse_checkpoint_json(once);
  EXPECT_EQ(checkpoint_to_json(reparsed), once);
  EXPECT_EQ(reparsed.pins.size(), cp.pins.size());
}

TEST(ReplayCheckpoint, RestoreThrowsOnDivergedPins) {
  Checkpoint cp = capture_checkpoint(sql_on_pair(), 50.0);
  ASSERT_GT(cp.pins.size(), 0u);
  cp.pins.front().node = cp.pins.front().node == 0 ? 1 : 0;
  try {
    restore_checkpoint(cp);
    FAIL() << "tampered pin prefix must not restore";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos) << e.what();
  }
}

TEST(ReplayCheckpoint, RejectsMultiTenantSpecs) {
  RunSpec spec = sql_on_pair();
  spec.arrivals = 0.5;
  EXPECT_THROW(capture_checkpoint(spec, 10.0), std::runtime_error);
}

TEST(ReplayCheckpoint, ParserRejectsBadDocuments) {
  EXPECT_THROW(parse_checkpoint_json("{}"), std::runtime_error);  // missing keys
  EXPECT_THROW(parse_checkpoint_json(R"({"format": "other", "time": 1, "run": {}})"),
               std::runtime_error);
  EXPECT_THROW(
      parse_checkpoint_json(
          R"({"format": "rupam-checkpoint-v1", "time": 1, "run": {}, "pins": [[1, 2]]})"),
      std::runtime_error);
  // Past long long's range: rejected before any float-to-int cast.
  EXPECT_THROW(
      parse_checkpoint_json(
          R"({"format": "rupam-checkpoint-v1", "time": 1, "run": {}, "pins": [[1e30, 0, 0, 0]]})"),
      std::runtime_error);
  // Past a stage id's int range: rejected, not wrapped to stage 0.
  EXPECT_THROW(parse_checkpoint_json(R"({"format": "rupam-checkpoint-v1", "time": 1, "run": {},)"
                                     R"( "pins": [[4294967296, 0, 0, 0]]})"),
               std::runtime_error);
}

TEST(ReplayCheckpoint, SeedAboveTwoToThe53IsRejectedNotRounded) {
  auto with_seed = [](const std::string& seed) {
    return parse_checkpoint_json(R"({"format": "rupam-checkpoint-v1", "time": 1, "run": {"seed": )" +
                                 seed + R"(}, "pins": []})");
  };
  EXPECT_EQ(with_seed("9007199254740992").run.seed, kMaxSeed);
  EXPECT_THROW(with_seed("9007199254740993"), std::runtime_error);
}

// --------------------------------------------------------------------------
// Branching: grammar, the dispatch-interceptor seam, suppression.

TEST(ReplayBranch, GrammarParsesAllThreeKinds) {
  BranchSpec node = parse_branch_spec("node:stage=3:task=7:node=1:attempt=2");
  EXPECT_EQ(node.kind, BranchKind::kNodeOverride);
  EXPECT_EQ(node.stage, 3);
  EXPECT_EQ(node.task, 7);
  EXPECT_EQ(node.node, 1);
  EXPECT_EQ(node.attempt, 2);

  BranchSpec sched = parse_branch_spec("scheduler=heft");
  EXPECT_EQ(sched.kind, BranchKind::kScheduler);
  EXPECT_EQ(sched.scheduler, SchedulerKind::kHeft);

  BranchSpec sup = parse_branch_spec("suppress:kind=spot:node=4");
  EXPECT_EQ(sup.kind, BranchKind::kSuppressFault);
  EXPECT_EQ(sup.fault, FaultKind::kSpotRevoke);
  EXPECT_EQ(sup.fault_node, 4);
}

TEST(ReplayBranch, GrammarRejectsMalformedSpecs) {
  EXPECT_THROW(parse_branch_spec(""), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("node:stage=1"), std::runtime_error);  // missing task/node
  EXPECT_THROW(parse_branch_spec("node:stage=x:task=1:node=0"), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("scheduler=yarn"), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("suppress:kind=meteor"), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("suppress:node=1"), std::runtime_error);  // missing kind
  EXPECT_THROW(parse_branch_spec("gibberish"), std::runtime_error);
  // Ids are read whole: no '+', no blank.
  EXPECT_THROW(parse_branch_spec("node:stage=+0:task=3:node=2"), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("node:stage=0:task= 3:node=2"), std::runtime_error);
  EXPECT_THROW(parse_branch_spec("suppress:kind=crash:node=+1"), std::runtime_error);
}

TEST(ReplayBranch, InterceptorForcesOneDispatch) {
  RunSpec spec = sql_on_pair();
  // Find a real early decision, then force its launch onto the other node.
  Checkpoint cp = capture_checkpoint(spec, 50.0);
  ASSERT_GT(cp.pins.size(), 0u);
  const DecisionPin& pin = cp.pins.front();
  NodeId other = pin.node == 0 ? 1 : 0;

  BranchSpec branch;
  branch.kind = BranchKind::kNodeOverride;
  branch.label = "test-override";
  branch.stage = pin.stage;
  branch.task = pin.task;
  branch.attempt = pin.attempt;
  branch.node = other;
  RunOutcome outcome = run_branch_side(spec, branch);
  EXPECT_GT(outcome.makespan, 0.0);

  // The same intervention through the Simulation seam, observed directly.
  SimulationConfig cfg = make_simulation_config(spec);
  cfg.enable_audit = true;
  Simulation sim(cfg);
  sim.set_dispatch_interceptor(
      [&](StageId stage, TaskId task, AttemptId attempt, NodeId) -> std::optional<NodeId> {
        if (stage != pin.stage || task != pin.task || attempt != pin.attempt) {
          return std::nullopt;
        }
        return other;
      });
  Application app = make_run_application(spec, sim);
  sim.run(app);
  bool forced = false;
  for (const DispatchDecision& d : sim.audit()->decisions()) {
    if (d.stage == pin.stage && d.task == pin.task && d.attempt == pin.attempt) {
      EXPECT_EQ(d.node, other);
      forced = true;
      break;
    }
  }
  EXPECT_TRUE(forced);
}

TEST(ReplayBranch, SchedulerBranchSwapsScheduler) {
  RunSpec spec = sql_on_pair();
  BranchSpec branch = parse_branch_spec("scheduler=rupam");
  BranchReport report = run_branch(spec, branch);
  EXPECT_EQ(report.base.scheduler, "Spark");
  EXPECT_EQ(report.branch.scheduler, "RUPAM");
  EXPECT_FALSE(report.comparison.deltas.empty());
  EXPECT_DOUBLE_EQ(report.p95_jct_saving(), report.base.jct.p95 - report.branch.jct.p95);
}

TEST(ReplayBranch, SuppressRemovesTheFault) {
  RunSpec spec = sql_on_pair();
  spec.faults = "crash@40:node=0:down=60";
  RunOutcome base = run_base(spec);
  RunOutcome suppressed = run_branch_side(spec, parse_branch_spec("suppress:kind=crash"));
  EXPECT_GT(base.failures + base.executor_losses + base.recomputed_partitions, 0u);
  EXPECT_EQ(suppressed.executor_losses, 0u);
  EXPECT_EQ(suppressed.recomputed_partitions, 0u);
  // With the crash gone the branch reproduces the fault-free run.
  RunSpec clean = sql_on_pair();
  RunOutcome fault_free = run_base(clean);
  EXPECT_DOUBLE_EQ(suppressed.makespan, fault_free.makespan);
}

TEST(ReplayBranch, SuppressOtherKindKeepsTheFault) {
  RunSpec spec = sql_on_pair();
  spec.faults = "crash@40:node=0:down=60";
  RunOutcome base = run_base(spec);
  RunOutcome other = run_branch_side(spec, parse_branch_spec("suppress:kind=spot"));
  EXPECT_DOUBLE_EQ(other.makespan, base.makespan);  // nothing matched, bit-identical
}

// --------------------------------------------------------------------------
// What-if advisor.

const char* kDiagnosisJson = R"({
  "stragglers": [
    {"stage": 7, "task": 405, "attempt": 0, "node": 0, "node_class": "slow-cpu",
     "duration": 74.5, "stage_median": 21.9, "ratio": 3.4,
     "cause": "slow_node_class", "detail": "class=slow-cpu"},
    {"stage": 7, "task": 406, "attempt": 0, "node": 0, "node_class": "slow-cpu",
     "duration": 30.0, "stage_median": 21.9, "ratio": 1.4,
     "cause": "slow_node_class", "detail": "class=slow-cpu"},
    {"stage": 2, "task": 10, "attempt": 1, "node": 1, "node_class": "fast-cpu",
     "duration": 50.0, "stage_median": 20.0, "ratio": 2.5,
     "cause": "node_fault", "detail": "crash"},
    {"stage": 3, "task": 11, "attempt": 0, "node": 1, "node_class": "fast-cpu",
     "duration": 25.0, "stage_median": 20.0, "ratio": 1.25,
     "cause": "spot_drain", "detail": "revoked"}
  ]
})";

TEST(ReplayWhatif, ParsesDiagnosisStragglers) {
  std::vector<DiagnosedStraggler> s = parse_diagnosis_stragglers(kDiagnosisJson);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].stage, 7);
  EXPECT_EQ(s[0].task, 405);
  EXPECT_EQ(s[0].cause, "slow_node_class");
  EXPECT_DOUBLE_EQ(s[0].duration, 74.5);
  EXPECT_EQ(s[2].attempt, 1);
}

TEST(ReplayWhatif, ParserRejectsBadDiagnoses) {
  EXPECT_THROW(parse_diagnosis_stragglers("{oops"), std::runtime_error);
  EXPECT_THROW(parse_diagnosis_stragglers(R"({"jobs": []})"), std::runtime_error);
  EXPECT_THROW(parse_diagnosis_stragglers(R"({"stragglers": [{"surprise": 1}]})"),
               std::runtime_error);
  EXPECT_THROW(parse_diagnosis_stragglers(R"({"stragglers": [{"stage": 1e30}]})"),
               std::runtime_error);
  EXPECT_THROW(
      parse_diagnosis_stragglers(R"({"stragglers": [{"stage": 4294967296, "cause": "x"}]})"),
      std::runtime_error);
}

TEST(ReplayWhatif, ProposesPolicyPerCause) {
  RunSpec spec = sql_on_pair();
  auto proposals =
      propose_branches(spec, parse_diagnosis_stragglers(kDiagnosisJson), /*max_candidates=*/8);
  std::vector<std::string> labels;
  for (const auto& [branch, why] : proposals) {
    (void)why;
    labels.push_back(branch.label);
  }
  // slow_node_class dominates total excess → its candidates come first:
  // redirect the worst blamed dispatch to the fast node, plus RUPAM.
  ASSERT_GE(labels.size(), 5u);
  EXPECT_EQ(labels[0], "node:stage=7:task=405:node=1");
  EXPECT_EQ(labels[1], "scheduler=rupam");
  EXPECT_NE(std::find(labels.begin(), labels.end(), "suppress:kind=crash"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "suppress:kind=spot"), labels.end());
  EXPECT_EQ(labels.back(), "scheduler=heft");  // the ever-present yardstick

  // Deduped (two slow_node_class stragglers, one override) and capped.
  auto capped =
      propose_branches(spec, parse_diagnosis_stragglers(kDiagnosisJson), /*max_candidates=*/2);
  EXPECT_EQ(capped.size(), 2u);
}

TEST(ReplayWhatif, AdvisorRanksFindingsBestFirst) {
  RunSpec spec = sql_on_pair();
  WhatIfConfig cfg;
  cfg.max_candidates = 4;
  WhatIfReport report = advise_whatif(spec, parse_diagnosis_stragglers(kDiagnosisJson), cfg);
  EXPECT_EQ(report.base.scheduler, "Spark");
  ASSERT_GT(report.findings.size(), 1u);
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_GE(report.findings[i - 1].p95_jct_saving, report.findings[i].p95_jct_saving);
  }
  for (const WhatIfFinding& f : report.findings) {
    EXPECT_FALSE(f.motivation.empty());
    EXPECT_GT(f.outcome.makespan, 0.0);
  }
  std::ostringstream os;
  write_whatif_json(report, os);
  EXPECT_NE(os.str().find("\"candidates\""), std::string::npos);
}

TEST(ReplayWhatif, AdvisorIsDeterministicAcrossThreadCounts) {
  RunSpec spec = sql_on_pair();
  auto stragglers = parse_diagnosis_stragglers(kDiagnosisJson);
  WhatIfConfig serial;
  serial.max_candidates = 3;
  serial.threads = 1;
  WhatIfConfig parallel = serial;
  parallel.threads = 4;
  std::ostringstream a, b;
  write_whatif_json(advise_whatif(spec, stragglers, serial), a);
  write_whatif_json(advise_whatif(spec, stragglers, parallel), b);
  EXPECT_EQ(a.str(), b.str());
}

// Over the run's own diagnosis the advisor rediscovers the paper's fix: the
// top finding swaps SQL-on-the-pair to RUPAM, saves p95 JCT and cites the
// slow node class, and a node override for the blamed dispatch is a
// candidate.
TEST(ReplayWhatif, AdvisorRanksRupamFirstOnTheRunsOwnDiagnosis) {
  RunSpec spec = sql_on_pair();
  SimulationConfig obs;
  obs.enable_analysis = true;
  obs.enable_spans = true;
  obs.enable_trace = true;
  ReplayRun run = start_replay_run(spec, obs);
  run.sim->finish();
  std::ostringstream diagnosis;
  write_diagnosis_json(analyze_run(run.sim->run_artifacts()), diagnosis);
  WhatIfConfig cfg;
  cfg.threads = 2;
  WhatIfReport report = advise_whatif(spec, parse_diagnosis_stragglers(diagnosis.str()), cfg);
  ASSERT_FALSE(report.findings.empty());
  const WhatIfFinding& top = report.findings.front();
  EXPECT_EQ(top.branch.label, "scheduler=rupam");
  EXPECT_GT(top.p95_jct_saving, 0.0);
  EXPECT_NE(top.motivation.find("slow_node_class"), std::string::npos) << top.motivation;
  EXPECT_TRUE(std::any_of(report.findings.begin(), report.findings.end(),
                          [](const WhatIfFinding& f) {
                            return f.branch.kind == BranchKind::kNodeOverride;
                          }));
}

// --------------------------------------------------------------------------
// Report documents: nested objects are written through the same writer.

bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull: return true;
    case JsonValue::Type::kBool: return a.as_bool() == b.as_bool();
    case JsonValue::Type::kNumber: return a.as_number() == b.as_number();
    case JsonValue::Type::kString: return a.as_string() == b.as_string();
    case JsonValue::Type::kArray:
      return std::equal(a.as_array().begin(), a.as_array().end(), b.as_array().begin(),
                        b.as_array().end(), same_json);
    case JsonValue::Type::kObject:
      return std::equal(a.as_object().begin(), a.as_object().end(), b.as_object().begin(),
                        b.as_object().end(), [](const auto& x, const auto& y) {
                          return x.first == y.first && same_json(x.second, y.second);
                        });
  }
  return false;
}

/// `nested` holds the fields of `o`: the standalone document's, and the
/// counts exactly.
void expect_outcome(const JsonValue* nested, const RunOutcome& o) {
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(same_json(*nested, parse_json(outcome_to_json(o))));
  EXPECT_NEAR(nested->find("makespan_s")->as_number(), o.makespan, 1e-9 * o.makespan);
  EXPECT_EQ(nested->find("task_launches")->as_number(), static_cast<double>(o.launches));
  EXPECT_EQ(nested->find("task_failures")->as_number(), static_cast<double>(o.failures));
}

/// Lines indented less than two spaces per container they sit in.
std::vector<std::string> underindented_lines(const std::string& doc) {
  std::vector<std::string> bad;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    bool closes = line[indent] == '}' || line[indent] == ']';
    if (static_cast<int>(indent) < 2 * (depth - (closes ? 1 : 0))) bad.push_back(line);
    for (char c : line) {
      if (in_string) {
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
      }
    }
  }
  return bad;
}

TEST(ReplayReports, NestedObjectsWrittenInPlace) {
  RunSpec spec = sql_on_pair();
  spec.seed = 7;
  BranchReport branch = run_branch(spec, parse_branch_spec("scheduler=rupam"));
  WhatIfConfig cfg;
  cfg.max_candidates = 2;
  WhatIfReport whatif = advise_whatif(spec, parse_diagnosis_stragglers(kDiagnosisJson), cfg);
  ASSERT_FALSE(whatif.findings.empty());
  std::ostringstream branch_json, whatif_json, comparison_json;
  write_branch_report_json(branch, branch_json);
  write_whatif_json(whatif, whatif_json);
  write_comparison_json(branch.comparison, comparison_json);

  JsonValue b = parse_json(branch_json.str());
  expect_outcome(b.find("base"), branch.base);
  expect_outcome(b.find("branch_run"), branch.branch);
  const JsonValue* comparison = b.find("comparison");
  ASSERT_NE(comparison, nullptr);
  EXPECT_TRUE(same_json(*comparison, parse_json(comparison_json.str())));
  EXPECT_EQ(comparison->find("improved")->as_number(),
            static_cast<double>(branch.comparison.improved));
  EXPECT_EQ(comparison->find("regressed")->as_number(),
            static_cast<double>(branch.comparison.regressed));
  const JsonValue::Array& metrics = comparison->find("metrics")->as_array();
  ASSERT_EQ(metrics.size(), branch.comparison.deltas.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].find("key")->as_string(), branch.comparison.deltas[i].key);
  }

  JsonValue w = parse_json(whatif_json.str());
  expect_outcome(w.find("base"), whatif.base);
  const JsonValue::Array& candidates = w.find("candidates")->as_array();
  ASSERT_EQ(candidates.size(), whatif.findings.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    expect_outcome(candidates[i].find("outcome"), whatif.findings[i].outcome);
  }

  for (const std::string& doc : {branch_json.str(), whatif_json.str()}) {
    std::vector<std::string> bad = underindented_lines(doc);
    EXPECT_TRUE(bad.empty()) << bad.size() << " lines, first: '" << bad.front() << "'";
  }
}

// --------------------------------------------------------------------------
// HEFT baseline rides the same seams.

TEST(ReplayHeft, FactoryAndDeterminism) {
  RunSpec spec = sql_on_pair();
  spec.scheduler = SchedulerKind::kHeft;
  RunOutcome first = run_base(spec);
  EXPECT_EQ(first.scheduler, "HEFT");
  EXPECT_GT(first.makespan, 0.0);
  RunOutcome second = run_base(spec);
  EXPECT_DOUBLE_EQ(second.makespan, first.makespan);
  EXPECT_EQ(second.launches, first.launches);
}

}  // namespace
}  // namespace rupam
