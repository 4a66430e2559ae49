// RUPAM: the heterogeneity-aware task scheduler (paper §III).
//
// Wires the three components together:
//   ResourceMonitor — per-node metrics rows, refreshed each dispatch round;
//   TaskManager     — Algorithm 1 characterization + per-resource queues
//                     backed by DB_task_char;
//   Dispatcher      — Algorithm 2 node/task matching with round-robin
//                     resource fairness, memory guard, optexecutor lock.
// Plus the §III-C mechanisms: utilization-based over-commit (a node is
// available as long as the offered resource has headroom, not when a core
// slot frees), memory-straggler relocation, and the CPU↔GPU dual-run race.
// The memory-straggler check runs at a node's heartbeat, which the grid
// delivers only while the node is under memory pressure. Node liveness is
// the base scheduler's one tracker: the walk skips a node past its
// heartbeat deadline (SchedulerBase::heartbeat_overdue) even before the
// periodic sweep declares it dead.
//
// Dispatch is indexed: per-resource admission reads the base scheduler's
// live-attempt counters (O(1) per node instead of a scan over every
// attempt). Each kind's node ranking is sorted once per dispatch round
// (the RM snapshot is frozen for the round) and admission is checked
// during the walk, so a launch costs a walk, not a re-sort of every node;
// the walk resumes past the closed nodes at the head of the ranking.
//
// A kind's rows are resolved from the TaskManager queue once per round,
// and only once that kind's walk has found an offerable node, so a round
// that launches nothing builds none. Algorithm 2 then sees only the rows
// QueueRowIndex says can win at the offered node (locked to it, local to
// it, and each pool's first guard-passing unlocked and locked-elsewhere
// rows), which picks exactly the row the whole queue would. This rests on
// one invariant: inside a round a launch changes only the launched task,
// the node its attempt lands on (a replay interceptor may redirect it)
// and the cluster-wide idle-GPU flag. So a row is re-checked at use with
// the collection predicates (a GPU-queue task launched on a CPU comes back
// as a race row at its original queue position), and a snapshot is rebuilt
// when the idle-GPU flag flips or the TaskManager's queues change any
// other way (TaskManager::version).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sched/rupam/dispatcher.hpp"
#include "sched/rupam/resource_monitor.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "sched/rupam/task_manager.hpp"
#include "sched/scheduler.hpp"

namespace rupam {

/// What a RUPAM run can vary: Algorithm 1's Res_factor (the paper driver
/// sweeps it) and the mechanism toggles the ablations flip. Admission
/// limits, memory watermarks and the MEM-queue threshold are run
/// constants (rupam_scheduler.cpp, task_manager.cpp).
struct RupamConfig {
  /// Algorithm 1 sensitivity.
  double res_factor = 2.0;
  /// Feature toggles (ablation benches flip these).
  bool opt_executor_lock = true;
  bool memory_guard = true;
  bool memory_straggler = true;
  bool gpu_cpu_race = true;
  bool overcommit = true;
};

class RupamScheduler : public SchedulerBase {
 public:
  RupamScheduler(SchedulerEnv env, RupamConfig config = {});
  ~RupamScheduler() override;

  std::string name() const override { return "RUPAM"; }

  void on_heartbeat(NodeId node) override;

  /// DB_task_char, a test seam: tests pre-teach it or read its size. A
  /// fresh Simulation starts with an empty one, which is how each of the
  /// paper's Fig 5 runs starts.
  TaskCharDb& db() { return db_; }
  std::size_t gpu_races() const { return gpu_races_; }

 protected:
  void try_dispatch() override;
  void node_membership_changed(NodeId node, NodeLifecycle state) override;
  void stage_submitted(StageState& stage) override;
  void task_pending_changed(StageState& stage, std::size_t index, bool pending) override;
  void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) override;
  void task_failed(StageState& stage, TaskState& task, const std::string& reason) override;
  void task_relaunchable(StageState& stage, TaskState& task) override;

 private:
  struct Pick {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
    bool gpu_race_copy = false;
  };
  /// A queued task ref resolved once per round, with its DB record.
  /// Whether it is a row right now — launchable, or (GPU queue, racing) a
  /// CPU run a freed device may poach — is checked at use by row_live().
  struct Row {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
    const TaskCharRecord* rec = nullptr;
  };
  /// One resource queue's rows for the current round, in queue order.
  struct RowSnapshot {
    std::size_t round = 0;         // dispatch_rounds() when built (0: never)
    std::uint64_t tm_version = 0;  // TaskManager::version() when built
    bool gpu_refs = false;         // CPU queue: GPU refs appended (no idle device)
    std::vector<Row> rows;
    QueueRowIndex index;
  };
  struct SpecCandidate {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
  };

  /// Request a round whenever one of `node`'s disk or NIC counts falls
  /// below its admission gate: those counts change at phase transitions,
  /// not when slots free up.
  void watch_io_gates(NodeId node);
  /// Watch `node`'s beats exactly while it is under memory_pressure().
  void watch_memory(NodeId node);
  /// Can `node` take one more task whose bottleneck is `kind`?
  bool node_available(const NodeMetrics& metrics, ResourceKind kind) const;
  /// node_available over `node`'s RM row; false for a node past its
  /// heartbeat deadline or one whose row is gone.
  bool node_offerable(NodeId node, ResourceKind kind) const;
  /// `kind`'s priority queue for this dispatch round: every RM row, best
  /// first, sorted on first use in the round. Admission is checked while
  /// walking it.
  const std::vector<NodeId>& round_order(ResourceKind kind);
  /// Could the `kind` queue hold a row at all? Cheap, from queue sizes.
  bool queue_nonempty(ResourceKind kind) const;
  /// `kind`'s snapshot for this round, built (or rebuilt) on demand: the
  /// active refs, plus (GPU queue under racing) the parked refs merged in
  /// enqueue order, plus (CPU queue when no device is idle anywhere) the
  /// GPU queue's active refs.
  RowSnapshot& rows_for(ResourceKind kind);
  /// Is row `r` of `kind`'s snapshot offerable right now?
  bool row_live(const RowSnapshot& snap, ResourceKind kind, std::uint32_t r) const;
  /// Algorithm 2 over the rows that can win at `node`.
  Pick pick_from_rows(RowSnapshot& snap, ResourceKind kind, NodeId node);
  /// Stragglers whose bottleneck matches `kind` (straggler path of
  /// Algorithm 2), computed once per kind-visit. Reference into scratch.
  const std::vector<SpecCandidate>& collect_speculative(ResourceKind kind);
  Pick pick_speculative(const std::vector<SpecCandidate>& candidates, NodeId node);
  /// Cheap pre-check: could any kind-visit possibly launch something?
  bool dispatch_possible() const;
  bool any_idle_gpu() const;
  /// At `node`'s beat: relocate its top memory consumer under memory_pressure().
  void check_memory_straggler(NodeId node);
  /// Free memory below the low watermark with at least two tasks running.
  bool memory_pressure(NodeId node) const;
  DispatcherPolicy dispatcher_policy() const;
  void seed_monitor();

  RupamConfig config_;
  TaskCharDb db_;
  TaskManager tm_;
  ResourceMonitor rm_;
  ResourceRoundRobin round_robin_;
  std::size_t gpu_races_ = 0;
  std::vector<NodeId> gpu_nodes_;  // nodes that physically carry devices
  std::set<TaskId> relocating_;  // guards repeated straggler kills per wave
  std::map<NodeId, SimTime> last_relocation_;  // per-node relocation rate limit
  std::vector<bool> memory_watched_;  // by NodeId: beats watched for the check

  // Dispatch-path scratch, reused across rounds: capacity settles at the
  // workload's high-water mark, after which kind-visits never allocate.
  std::array<RowSnapshot, kNumResourceKinds> snapshots_;
  std::vector<std::uint32_t> candidates_scratch_;
  std::vector<SpecCandidate> spec_scratch_;
  std::vector<DispatchTaskView> views_scratch_;
  /// Dense PoolId.index() → per-pool views (FAIR bucketing). Buckets keep
  /// their capacity across rounds; `by_pool_used_` lists the dirty ones so
  /// clearing is O(pools seen this call), not O(all pools ever).
  std::vector<std::vector<DispatchTaskView>> by_pool_;
  std::vector<std::size_t> by_pool_used_;
  std::vector<ResourceMonitor::RankKey> rank_keys_scratch_;
  /// Per-kind round_order() results, cleared at each round start (empty =
  /// not sorted yet this round).
  std::array<std::vector<NodeId>, kNumResourceKinds> round_order_;
  /// Per kind, how many nodes at the head of round_order() this round's
  /// walks found closed (they stay closed until the round ends).
  std::array<std::size_t, kNumResourceKinds> order_head_{};
};

}  // namespace rupam
