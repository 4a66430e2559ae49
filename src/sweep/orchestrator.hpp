// Parallel sweep orchestrator: execute every (cell, replication) run of a
// SweepSpec grid on the parallel_for worker pool (sweep/work_queue.hpp),
// and collect results into a stable-ordered matrix.
//
// Determinism contract: each run's seed is derived purely from (base_seed,
// cell coordinates, replication index) and results land in preassigned
// slots (cell-major, replication-minor), so the aggregated matrix — and
// its JSON serialization — is byte-identical regardless of worker count or
// completion order. Simulations share nothing (KernelStats is
// per-Simulator; every run builds its own cluster/scheduler/RNG streams),
// which is what makes the pool safe in the first place.
//
// Failure isolation: a cell that throws is recorded as an error entry
// (ok=false, the exception message) and the pool keeps draining; a
// SweepController lets a caller stop early, in which case the not-yet-run
// entries are marked "cancelled" rather than dropped, keeping the matrix
// shape intact.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/analyzer.hpp"
#include "simcore/kernel_stats.hpp"
#include "sweep/sweep_spec.hpp"

namespace rupam {

/// Outcome of one (cell, replication) run.
struct RunResult {
  bool ok = false;
  std::string error;  // non-empty iff !ok ("cancelled" for unrun entries)
  std::uint64_t seed = 0;
  int replication = 0;

  double makespan = 0.0;  // first submission → last application finish
  std::size_t apps = 0;
  std::size_t jobs = 0;
  double mean_jct = 0.0;
  double p50_jct = 0.0;
  double p95_jct = 0.0;
  double p99_jct = 0.0;
  double mean_queueing = 0.0;
  double avg_cpu_util = 0.0;  // fraction; 0 when sampling is off
  KernelStats kernel{};       // this run's Simulator counters
  /// Filled when the spec's `analyze` flag is on: straggler counts by
  /// cause and the summed critical-path attribution for this run.
  bool analyzed = false;
  AnalyzerSummary analyzer{};
};

/// Mean and small-sample 95% CI (Student-t) over n replication values.
struct MetricAggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

MetricAggregate aggregate_metric(const std::vector<double>& values);

/// One grid cell: its coordinates, every replication's RunResult (ordered
/// by replication index) and the per-metric aggregates over the ok runs.
struct CellResult {
  CellCoord coord;
  std::vector<RunResult> reps;
  std::size_t failed = 0;  // reps with ok == false

  MetricAggregate makespan;
  MetricAggregate mean_jct;
  MetricAggregate p50_jct;
  MetricAggregate p95_jct;
  MetricAggregate utilization;
  /// Analyzer rollup over the ok reps (counts summed, critical path
  /// averaged); `analyzed` is true when at least one rep carried one.
  bool analyzed = false;
  AnalyzerSummary analyzer{};

  /// Recompute `failed` and the aggregates from `reps`.
  void aggregate();
};

struct SweepMatrix {
  SweepSpec spec;
  std::vector<CellResult> cells;  // spec.cell_count() entries, row-major

  std::size_t total_runs() const;
  std::size_t failed_runs() const;
  /// Summed kernel counters across every run (bench footers).
  KernelStats kernel_total() const;

  /// Deterministic matrix serialization: same spec → byte-identical output
  /// at any worker count.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
};

/// Cooperative early-stop shared between the caller and the worker pool.
class SweepController {
 public:
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
};

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). The pool is
  /// never larger than the number of runs.
  int threads = 1;
  /// Optional external cancel: once stop is requested, queued runs drain
  /// as "cancelled" error entries instead of executing.
  SweepController* controller = nullptr;
  /// Called after every finished run, serialized by the orchestrator
  /// (never concurrently): (runs_done, runs_total).
  std::function<void(std::size_t, std::size_t)> on_progress;
  /// Test seam: replaces the real per-run simulation. Receives the spec,
  /// cell coordinates, replication index and derived seed.
  std::function<RunResult(const SweepSpec&, const CellCoord&, int, std::uint64_t)> runner;
};

/// The real per-run body: build the cell's fleet + Simulation, draw the
/// Poisson submission stream and run it to completion. Throws on
/// configuration errors (callers — the pool — convert that to an error
/// entry).
RunResult run_sweep_cell(const SweepSpec& spec, const CellCoord& cell, int replication,
                         std::uint64_t seed);

/// Execute the whole grid and return the aggregated, stable-ordered
/// matrix. Validates the spec first (throws std::runtime_error on bad
/// specs). Degenerate grids (an empty axis) return an empty matrix.
SweepMatrix run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

}  // namespace rupam
