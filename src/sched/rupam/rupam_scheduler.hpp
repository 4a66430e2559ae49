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
// The TaskManager's queues are the row index Algorithm 2 reads, kept
// across rounds (task_manager.hpp). Algorithm 2 sees only the rows
// QueueRowIndex says can win at the offered node (locked to it, local to
// it, and each pool's first guard-passing unlocked and locked-elsewhere
// rows), which picks exactly the row the whole queue would. A row is
// checked at use: launchable, or (GPU queue, racing) running on a CPU
// only, so a GPU-queue task launched on a CPU comes back as a race row at
// its queue position. With no device idle anywhere, the CPU queue offers
// the GPU queue's rows after its own.
//
// Straggler copies (Algorithm 2's straggler path) come from one walk per
// round, which the round's kind-visits share: each drops the entries the
// round's launches made stale and sorts what is left as the walk's own
// sort would have.
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

  /// Row-index oracle, a test seam: with it on, every any_live and
  /// Algorithm 2 pick a round makes is made again over a snapshot built
  /// from scratch (each queued task of a kind, its lock read from the DB,
  /// its localities from its spec and the block locations), and each
  /// disagreement counts as a mismatch.
  void set_row_oracle(bool on) { row_oracle_ = on; }
  std::size_t row_oracle_mismatches() const { return row_oracle_mismatches_; }
  /// Picks the oracle compared.
  std::size_t row_oracle_checks() const { return row_oracle_checks_; }

 protected:
  void try_dispatch() override;
  void node_membership_changed(NodeId node, NodeLifecycle state) override;
  void stage_submitted(StageState& stage) override;
  void stage_removed(StageState& stage) override;
  void task_pending_changed(StageState& stage, std::size_t index, bool pending) override;
  void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) override;
  void task_failed(StageState& stage, TaskState& task, const std::string& reason) override;
  void task_relaunchable(StageState& stage, TaskState& task) override;
  void cache_block_changed(NodeId node, const std::string& key, bool present) override;

 private:
  struct Pick {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
    bool gpu_race_copy = false;
  };
  struct SpecCandidate {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
  };
  /// An entry of the round's straggler walk, with its Algorithm 1
  /// bottleneck.
  struct Straggler : Overdue {
    StageState* owner = nullptr;
    ResourceKind kind = ResourceKind::kCpu;
    /// First entry of its stage: the stage's bound was re-read after all
    /// of its entries went stale.
    bool rewalked = false;
  };
  using TaskRef = TaskManager::TaskRef;

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
  /// Could the `kind` queue hold a row at all? Cheap, from row counts.
  bool queue_nonempty(ResourceKind kind) const;
  /// The GPU queue `kind`'s queue offers after its own rows, if any: the
  /// CPU queue's when racing and no device is idle anywhere.
  QueueRowIndex* tail_of(ResourceKind kind);

  TaskRef task_ref(const StageState& stage, const TaskState& task) const;
  /// The task behind row `r` of `kind`'s queue (kTail: of its tail).
  TaskRef ref_of(ResourceKind kind, std::uint32_t r) const;
  StageState& stage_at(TaskRef ref) const { return *slot_stages_[ref.slot]; }
  TaskState& task_at(TaskRef ref) const { return stage_at(ref).tasks[ref.index]; }
  /// Link the task's rows to the nodes where it runs better than ANY: its
  /// input stored there, or its cached block held by that node's executor.
  void link_local(TaskRef ref, const TaskSpec& spec, TaskManager::KindMask kinds);
  /// Is row `r` of `kind`'s queue offerable right now?
  bool row_live(ResourceKind kind, std::uint32_t r) const;
  /// Does `kind`'s queue hold a live row?
  bool any_rows(ResourceKind kind);
  /// Algorithm 2 over the rows that can win at `node`.
  Pick pick_from_rows(ResourceKind kind, NodeId node);
  /// Algorithm 2 over `rows` (queue order; ids as ref_of reads them).
  /// `fresh` reads each task's record from the DB instead of the queue.
  Pick select(ResourceKind kind, NodeId node, const std::vector<std::uint32_t>& rows,
              bool fresh);
  /// The oracle's snapshot of `kind`'s queue (with the GPU queue's tail);
  /// its rows' handles are the live queue's row ids.
  void build_oracle_snapshot(ResourceKind kind, bool gpu_tail);
  /// Stragglers whose bottleneck matches `kind` (straggler path of
  /// Algorithm 2), from the round's one walk. Reference into scratch.
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
  /// TaskManager stage slot -> its stage (null while the slot is free).
  std::vector<StageState*> slot_stages_;

  // Dispatch-path scratch, reused across rounds: capacity settles at the
  // workload's high-water mark, after which kind-visits never allocate.
  std::vector<std::uint32_t> candidates_scratch_;
  std::vector<NodeId> local_scratch_;
  /// The round's straggler walk (spec_round_: the round it belongs to),
  /// the entries still stale-free at the last copy launch, sorted, and one
  /// kind's share of them.
  std::size_t spec_round_ = 0;
  std::size_t spec_copies_ = 0;  // copy_launches_ when spec_live_ was made
  std::size_t copy_launches_ = 0;
  std::vector<Overdue> walk_scratch_;
  std::vector<Straggler> spec_walk_;
  std::vector<Straggler> spec_live_;
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

  bool row_oracle_ = false;
  std::size_t row_oracle_mismatches_ = 0;
  std::size_t row_oracle_checks_ = 0;
  QueueRowIndex oracle_index_;
  std::vector<std::uint32_t> oracle_scratch_;
};

}  // namespace rupam
