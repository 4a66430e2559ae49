// Checkpoints as deterministic re-execution. The simulator is a pure
// function of (RunSpec, seed), so a checkpoint does not serialize heap
// state — it records the run's identity plus the prefix of dispatch
// decisions made by time T:
//
//   Checkpoint = { RunSpec (fleet embedded by value), time T,
//                  decision pins: one (stage, task, attempt, node)
//                  per launch with decision time <= T }
//
// restore_checkpoint rebuilds the Simulation from the embedded spec and
// replays to T at event boundaries (Simulation::advance_until), then
// verifies the recorded audit prefix matches the pins bit for bit. A
// divergence means the binary no longer reproduces the checkpointed run
// (code drift, wrong build) and restore throws rather than silently
// continuing a different run. Format in DESIGN.md §14; byte-identity of
// restore-then-finish vs. a straight run is pinned by tests/test_replay.cpp.
//
// Checkpoints cover single-application runs (arrivals == 0) — the only
// mode the replay layer branches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"
#include "dag/job.hpp"

namespace rupam {

/// One pinned dispatch decision (the replay-relevant projection of
/// obs::DispatchDecision).
struct DecisionPin {
  StageId stage = 0;
  TaskId task = 0;
  AttemptId attempt = 0;
  NodeId node = 0;

  friend bool operator==(const DecisionPin& a, const DecisionPin& b) {
    return a.stage == b.stage && a.task == b.task && a.attempt == b.attempt &&
           a.node == b.node;
  }
};

struct Checkpoint {
  RunSpec run;          // fleet embedded by value (self-describing)
  SimTime time = 0.0;   // quiescent point the run was advanced to
  std::vector<DecisionPin> pins;  // decision prefix with time <= `time`
};

/// JSON round-trip ({"format":"rupam-checkpoint-v1", ...}); strict like
/// every other spec parser — unknown keys and type mismatches throw.
std::string checkpoint_to_json(const Checkpoint& cp);
Checkpoint parse_checkpoint_json(const std::string& text);
Checkpoint load_checkpoint_file(const std::string& path);

/// A simulation mid-flight plus the application it is running. Both are
/// heap-held: the DAG scheduler keeps a pointer to the application for
/// the whole run, so its address must survive moving a ReplayRun. Audit
/// recording is always on — branch/restore flows need the decision log —
/// which is safe because observability never perturbs the run.
struct ReplayRun {
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Application> app;
};

/// Build the run a spec describes with audit (and any extra observability
/// in `base`) enabled, and begin() it. `base` supplies observability
/// defaults; run identity always comes from `spec`.
ReplayRun start_replay_run(const RunSpec& spec, const SimulationConfig& base = {});

/// Capture a checkpoint of `spec`'s run at quiescent time `t`: start,
/// advance_until(t), pin the decision prefix. The returned run is still
/// active — callers may finish() it (capture-and-continue) or drop it.
Checkpoint capture_checkpoint(const RunSpec& spec, SimTime t, ReplayRun* keep_run = nullptr);

/// Re-execute `cp.run` up to cp.time and verify the decision prefix
/// equals cp.pins; throws std::runtime_error on divergence. The returned
/// run is paused at the checkpoint — finish() runs it to completion.
ReplayRun restore_checkpoint(const Checkpoint& cp, const SimulationConfig& base = {});

/// The pins for every decision with time <= t (decisions are recorded in
/// launch order, so this is a prefix).
std::vector<DecisionPin> pin_prefix(const DecisionAudit& audit, SimTime t);

}  // namespace rupam
