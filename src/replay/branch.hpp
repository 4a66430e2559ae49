// Counterfactual branching: fork a recorded run at a dispatch decision
// and replay the alternative. A branch re-executes the base RunSpec with
// exactly one intervention:
//
//   node:stage=S:task=T:node=N[:attempt=A]   redirect one launch
//   scheduler=NAME                           swap the whole scheduler
//   suppress:kind=K[:node=N]                 drop matching fault events
//                                            (K: crash|slow|hbdrop|degrade|spot)
//
// (grammar in DESIGN.md §14). The node override rides the dispatch
// interceptor seam in SchedulerBase::launch_task and is one-shot: it
// fires on the first matching (stage, task, attempt) and never again,
// even if the forced node turns out unusable — otherwise a dead target
// would livelock the retry loop. Everything before the intervention is
// identical to the base run by determinism; everything after is the
// counterfactual. The BranchReport diffs the two outcomes with the
// cross-run comparator (obs/comparator.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/jct.hpp"
#include "obs/comparator.hpp"
#include "replay/checkpoint.hpp"

namespace rupam {

enum class BranchKind : std::uint8_t {
  kNodeOverride = 0,  // redirect one task launch
  kScheduler,         // rerun under a different scheduler
  kSuppressFault,     // remove matching fault events
};

struct BranchSpec {
  BranchKind kind = BranchKind::kNodeOverride;
  std::string label;  // the spec text this was parsed from

  // kNodeOverride
  StageId stage = 0;
  TaskId task = 0;
  AttemptId attempt = 0;
  NodeId node = kInvalidNode;

  // kScheduler
  SchedulerKind scheduler = SchedulerKind::kRupam;

  // kSuppressFault: events of `fault` (on `fault_node`, or any node when
  // kInvalidNode) are dropped; a seeded chaos plan is expanded first so
  // its events can be filtered too.
  FaultKind fault = FaultKind::kCrash;
  NodeId fault_node = kInvalidNode;
};

/// Parse the branch grammar above; throws std::runtime_error with a
/// field-specific message on malformed specs.
BranchSpec parse_branch_spec(const std::string& text);

/// Flat scalar outcome of one finished run — the comparator-facing
/// projection (every numeric field lands in outcome_to_json).
struct RunOutcome {
  std::string scheduler;
  SimTime makespan = 0.0;
  JctSummary jct;
  std::size_t stragglers = 0;
  std::size_t launches = 0;
  std::size_t failures = 0;
  std::size_t oom_kills = 0;
  std::size_t executor_losses = 0;
  std::size_t relocations = 0;
  std::size_t recomputed_partitions = 0;
};

/// Flat JSON object compare_json_text understands (BENCH-style).
std::string outcome_to_json(const RunOutcome& outcome);
/// The same object, written into an in-progress writer.
void write_outcome(const RunOutcome& outcome, JsonWriter& w);

struct BranchReport {
  BranchSpec spec;
  RunOutcome base;
  RunOutcome branch;
  ComparisonReport comparison;  // base vs. branch, CI-aware verdicts

  /// Positive = the branch finished its jobs faster (seconds saved).
  double p95_jct_saving() const { return base.jct.p95 - branch.jct.p95; }
  double makespan_saving() const { return base.makespan - branch.makespan; }
};

/// Run `spec` straight through with full analysis observability and
/// summarize it. `analyze_k` is the straggler threshold (obs/analyzer).
RunOutcome run_base(const RunSpec& spec, double analyze_k = 1.5);

/// Execute one branch of `spec` (base run + intervened run) and diff.
/// `base` may be a precomputed run_base(spec) outcome to avoid repeating
/// the straight run across branches; pass nullptr to compute it here.
BranchReport run_branch(const RunSpec& spec, const BranchSpec& branch,
                        const RunOutcome* base = nullptr, double analyze_k = 1.5);

/// Run only the intervened side (the base-sharing building block behind
/// run_branch and the what-if advisor).
RunOutcome run_branch_side(const RunSpec& spec, const BranchSpec& branch,
                           double analyze_k = 1.5);

/// Project a finished full-observability run into its flat outcome (the
/// building block behind the runners above and the CLI's --report-out).
/// The simulation must have spans/audit/trace/analysis enabled.
RunOutcome summarize_outcome(Simulation& sim, SimTime makespan, double analyze_k = 1.5);

/// Machine-readable report: {"branch": ..., "base": {...}, "branch_run":
/// {...}, "comparison": {...}, "p95_jct_saving_s": ...}.
void write_branch_report_json(const BranchReport& report, std::ostream& os);

}  // namespace rupam
