// RunSpec: the declarative description of one simulation run — workload,
// scheduler, fleet, faults, tenancy and elasticity — with a strict JSON
// round-trip (parse_run_spec_json / run_spec_to_json), the FleetSpec /
// SweepSpec idiom. It is the single source of truth the CLI, checkpoints
// and the replay layer all build a Simulation from; the CLI parses its
// flags straight into one (CliOptions::run) and keeps no copy:
//
//   RunSpec spec = load_run_spec_file("run.json");
//   Simulation sim(make_simulation_config(spec));
//   Application app = make_run_application(spec, sim);
//   sim.run(app);
//
// Observability switches (traces, metrics, audit, analysis) are output
// routing, not run identity — they never perturb the simulated event
// sequence — so they stay on SimulationConfig/CliOptions and are NOT part
// of a RunSpec. Schema in DESIGN.md §14.
#pragma once

#include <optional>
#include <string>

#include "cluster/fleet.hpp"
#include "common/types.hpp"
#include "sched/factory.hpp"
#include "sched/pool.hpp"

namespace rupam {

struct SimulationConfig;
class Simulation;
struct Application;

struct RunSpec {
  std::string workload = "PR";     // Table III short name
  bool workload_explicit = false;  // serialized only when set (CLI parity)
  SchedulerKind scheduler = SchedulerKind::kRupam;
  /// Fleet by reference (JSON file path) or by value (embedded spec) —
  /// at most one; both empty = the 12-node Hydra preset. Checkpoints
  /// always embed by value so they stay self-describing.
  std::string fleet;
  std::optional<FleetSpec> fleet_spec;
  int iterations = 0;  // 0 = preset default
  std::uint64_t seed = 1;
  bool sample_utilization = false;
  std::string faults;            // fault spec (faults/fault_plan.hpp)
  std::uint64_t chaos_seed = 0;  // non-zero: merge a seeded chaos plan
  /// Multi-tenant mode (> 0): open-loop Poisson arrivals at this rate.
  double arrivals = 0.0;
  int tenants = 2;
  PoolPolicy pool_policy = PoolPolicy::kFifo;
  SimTime duration = 600.0;  // arrival generation horizon
  double diurnal = 0.0;      // arrival shape amplitude, [0, 1]
  SimTime diurnal_period = 120.0;
  int autoscale = 0;  // > 0: max minted nodes
  std::string spot_plan;
  bool preempt = false;

  /// Field-level sanity checks, the only range checks a run's fields get:
  /// parse_run_spec_json, the CLI's parse_cli and make_simulation_config
  /// all call this. Throws std::runtime_error with a field-specific
  /// message.
  void validate() const;
};

/// Parse a JSON run spec. Strict: unknown keys, type mismatches and
/// malformed nested specs (fleet, fault plans) all throw
/// std::runtime_error.
RunSpec parse_run_spec_json(const std::string& text);

/// Same, from an already-parsed value — checkpoints embed their RunSpec
/// under a "run" key.
RunSpec parse_run_spec_value(const JsonValue& doc);

/// Serialize so that parse(serialize(spec)) == spec and a second
/// serialize is byte-identical (round-trip stable).
std::string run_spec_to_json(const RunSpec& spec);

/// Write the spec as one JSON object into an in-progress writer.
void write_run_spec_json(const RunSpec& spec, JsonWriter& w);

/// Read and parse a spec file; throws std::runtime_error (with the path)
/// on IO or parse failure.
RunSpec load_run_spec_file(const std::string& path);

/// Everything about the run the simulator needs: scheduler, generated
/// fleet, parsed fault plan (spot plan merged in), pools, autoscaling,
/// preemption, seed. Observability flags are left at their defaults for
/// the caller to set. Throws std::runtime_error on an invalid spec.
SimulationConfig make_simulation_config(const RunSpec& spec);

/// Build the single application the spec describes against `sim`'s
/// cluster (preset workload, spec seed/iterations, HDFS placement
/// weights). Throws std::runtime_error for multi-tenant specs
/// (arrivals > 0) — those runs draw a submission stream instead.
Application make_run_application(const RunSpec& spec, Simulation& sim);

}  // namespace rupam
