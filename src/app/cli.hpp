// Command-line driver behind the `rupam_sim` tool: parse arguments, run
// one (workload, scheduler) simulation, print a report, optionally dump
// traces. Kept in the library so it is unit-testable.
//
// A run's identity lives in one RunSpec (app/run_spec.hpp): flags parse
// straight into CliOptions::run, and every mode builds its Simulation from
// make_simulation_config(run). The rest of CliOptions picks the mode and
// routes output; none of it changes the simulated event sequence.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"

namespace rupam {

struct CliOptions {
  /// The run's identity. --config loads it first; every run flag then
  /// overwrites its own field, wherever it sits on the command line.
  RunSpec run;
  int repetitions = 1;  // runs seed, seed + 1, ... and reports mean +- 95% CI
  std::string trace_csv;     // write the event trace here if non-empty
  std::string trace_chrome;  // chrome://tracing JSON path
  /// Perfetto task-phase span trace path (enables span recording).
  std::string trace_perfetto;
  /// Metrics exposition path: ".json" → JSON, else Prometheus text.
  std::string metrics_out;
  /// Dispatch-decision audit path: ".json" → JSON, else CSV.
  std::string explain_out;
  /// Post-run diagnosis path (critical paths + straggler causes). Enables
  /// spans, audit, event trace and JCT collection for the run.
  std::string analyze_out;
  double analyze_k = 1.5;  // straggler threshold for --analyze
  /// Comparator mode: diff two run reports / sweep matrices and exit.
  std::string compare_base;
  std::string compare_test;
  std::string compare_out;      // comparison JSON path; empty = table only
  bool compare_strict = false;  // exit 1 when any metric regressed
  /// Relative significance floor for --compare (ComparisonConfig default
  /// when unset). Wall-clock benches on shared runners want a loose one.
  double compare_tolerance = -1.0;  // < 0: use the comparator default
  /// Sweep mode: path to a JSON SweepSpec (see sweep/sweep_spec.hpp);
  /// non-empty runs the whole grid on a worker pool and writes one JSON
  /// result matrix, ignoring `run`.
  std::string sweep;
  int sweep_threads = 0;  // 0 = hardware concurrency
  std::string sweep_out;  // matrix path; empty = stdout
  /// >= 0: capture a checkpoint at this simulated time (see
  /// replay/checkpoint.hpp) and write it to `checkpoint_out`.
  SimTime checkpoint_at = -1.0;
  std::string checkpoint_out;
  /// Checkpoint path: restore (verify the pinned decision prefix) and run
  /// to completion; with --branch / --whatif it supplies the RunSpec.
  std::string restore;
  /// Counterfactual branch spec (grammar in replay/branch.hpp).
  std::string branch;
  std::string branch_out;  // branch report JSON path; empty = table only
  /// What-if advisor mode: path to a --analyze diagnosis JSON.
  std::string whatif;
  std::string whatif_out;  // ranked findings JSON path; empty = stdout
  /// Write the run's flat outcome JSON (comparator-ready) here.
  std::string report_out;
  bool list_workloads = false;
  bool help = false;
};

/// Parse argv. Returns std::nullopt and writes one line to `err` on
/// invalid input. Flags check their own syntax; the finished `run` then
/// goes through RunSpec::validate, the same check --config files and
/// checkpoints pass. Recognized flags:
///   --config RUN.json
///   --workload NAME --scheduler spark|rupam|stageaware|fifo|heft --fleet PATH
///   --iterations N --repetitions N --seed N --sample
///   --trace-csv PATH --trace-chrome PATH --trace-perfetto PATH
///   --metrics-out PATH --explain PATH --analyze PATH --analyze-k K
///   --report-out PATH
///   --compare BASE TEST --compare-out PATH --compare-strict
///   --compare-tolerance F
///   --faults SPEC --chaos SEED
///   --arrivals RATE --tenants N --pool-policy fifo|fair --duration T
///   --diurnal AMP --diurnal-period T
///   --autoscale MAX --spot-plan SPEC --preempt
///   --sweep SPEC.json --sweep-threads N --sweep-out PATH
///   --checkpoint-at T --checkpoint-out PATH --restore PATH
///   --branch SPEC --branch-out PATH --whatif DIAG.json --whatif-out PATH
///   --list --help
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::ostream& err);

/// Run per the options; returns the process exit code.
int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err);

std::string cli_usage();

}  // namespace rupam
