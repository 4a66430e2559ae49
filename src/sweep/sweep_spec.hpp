// Parameter-sweep grid specification: the capacity-planning matrix a
// cluster operator runs — scheduler × fleet size × arrival rate × fault
// plan, each cell replicated N times with derived seeds.
//
// A SweepSpec fully determines every run in the sweep: cell coordinates
// are indices into the four axis vectors (row-major, scheduler outermost,
// fault plan innermost) and each (cell, replication) pair hashes to its
// own seed via derive_run_seed — a pure function of (base_seed, axis
// indices, replication), so results are bit-identical no matter how many
// worker threads execute the grid or in which order cells finish.
// Specs are loadable from small JSON files (schema in DESIGN.md §11) and
// exposed on the CLI via --sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "common/types.hpp"
#include "sched/factory.hpp"
#include "sched/pool.hpp"

namespace rupam {

/// Position of one cell in the grid: indices into the spec's axis vectors.
struct CellCoord {
  std::size_t scheduler = 0;
  std::size_t fleet = 0;
  std::size_t rate = 0;
  std::size_t fault = 0;
  std::size_t elastic = 0;
};

struct SweepSpec {
  std::string name = "sweep";
  std::uint64_t base_seed = 1;
  int replications = 5;

  /// Grid axes. Empty vectors are legal (a degenerate grid with zero
  /// cells); the parser only fills defaults for axes the JSON omits.
  std::vector<SchedulerKind> schedulers{SchedulerKind::kSpark, SchedulerKind::kRupam};
  std::vector<int> fleet_sizes{12};
  std::vector<double> arrival_rates{0.05};
  /// Fault specs (faults/fault_plan.hpp syntax); "" = fault-free.
  std::vector<std::string> fault_plans{std::string()};
  /// Elastic-fleet modes: "" (static), "autoscale", "preempt", or
  /// "autoscale+preempt". The default single-"" axis reproduces legacy
  /// 4-axis sweeps cell for cell, seed for seed.
  std::vector<std::string> elastic_modes{std::string()};

  /// Per-run knobs shared by every cell.
  SimTime duration = 600.0;  // arrival generation horizon
  int tenants = 2;
  PoolPolicy pool_policy = PoolPolicy::kFifo;
  std::vector<std::string> mix;  // workload short names; empty = Table III
  int iterations_override = 0;
  std::size_t max_apps = 0;
  bool sample_utilization = true;
  /// Run the post-run analyzer on every run and carry per-run / per-cell
  /// straggler + critical-path summaries in the matrix (JSON key
  /// "analyze"). Off by default: analysis records spans/audit/trace per
  /// run, which costs memory at large grid sizes.
  bool analyze = false;

  std::size_t cell_count() const {
    return schedulers.size() * fleet_sizes.size() * arrival_rates.size() * fault_plans.size() *
           elastic_modes.size();
  }
  std::size_t total_runs() const { return cell_count() * static_cast<std::size_t>(replications); }

  /// Row-major linearization (scheduler, fleet, rate, fault, elastic).
  std::size_t cell_index(const CellCoord& c) const;
  CellCoord cell_at(std::size_t index) const;

  /// Throws std::runtime_error with a field-specific message when the
  /// spec cannot run (bad replication count, non-positive rates, fleet
  /// sizes below the generator's minimum, malformed fault plans, ...).
  void validate() const;
};

/// splitmix64 finalizer — the mixing primitive behind seed derivation.
std::uint64_t sweep_mix64(std::uint64_t x);

/// Seed for one (cell, replication) run: a pure hash of (base_seed, axis
/// indices, replication index). Never returns 0 (0 is "disabled" for some
/// seed knobs). Pinned by tests/test_sweep.cpp — changing this function
/// invalidates every recorded sweep.
std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t scheduler_idx,
                              std::size_t fleet_idx, std::size_t rate_idx,
                              std::size_t fault_idx, int replication);
/// The spec-level overload also folds in the elastic axis — but only for
/// non-default modes (elastic index > 0), so every seed a 4-axis sweep
/// ever recorded is still produced verbatim.
std::uint64_t derive_run_seed(const SweepSpec& spec, const CellCoord& cell, int replication);

/// Decode an elastic-mode axis value ("", "autoscale", "preempt",
/// "autoscale+preempt") into its two toggles; returns false on anything
/// else.
bool parse_elastic_mode(const std::string& mode, bool& autoscale, bool& preempt);

/// The cluster a sweep cell runs on: the canned Hydra testbed at 12 nodes,
/// scaled_hydra_fleet otherwise, with a per-size seed derived from
/// base_seed so every cell sharing a fleet size sees the identical fleet.
FleetSpec sweep_fleet_spec(int nodes, std::uint64_t base_seed);

/// Parse a JSON sweep spec (schema in DESIGN.md §11). Unknown keys and
/// type mismatches are errors; throws std::runtime_error.
SweepSpec parse_sweep_json(const std::string& text);

/// Read and parse a spec file; throws std::runtime_error (with the path)
/// on IO or parse failure.
SweepSpec load_sweep_file(const std::string& path);

/// Serialize a spec to JSON that parse_sweep_json maps back to an
/// equivalent spec (round-trip stable).
std::string sweep_to_json(const SweepSpec& spec);

}  // namespace rupam
