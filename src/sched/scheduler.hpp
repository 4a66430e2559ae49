// Task-scheduler base: bookkeeping shared by the default Spark scheduler
// and RUPAM — task/stage state, attempt wiring, retry-on-failure, kill-the-
// loser semantics for speculative copies, and straggler detection.
//
// Subclasses implement try_dispatch(): examine cluster state, pick tasks,
// call launch_task() until nothing more fits. A round is requested
// (coalesced into a single event at the current simulation time) only when
// something it reads can have changed: a task becomes pending (submit,
// resubmit, failure, relocation, preemption), a slot frees (success,
// failure, kill) or a node becomes usable (executor ready, join, revival,
// un-blacklist). A heartbeat requests one only when it revives a node or
// ends an overdue silence. Conditions that relax with time get an exact
// wake-up instead of being polled: the end of a retry backoff, blacklist
// expiry, the next straggler crossing and (Spark) the next
// delay-scheduling level.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/liveness.hpp"
#include "common/symbol.hpp"
#include "dag/job.hpp"
#include "exec/executor.hpp"
#include "metrics/event_trace.hpp"
#include "obs/audit.hpp"
#include "obs/overhead.hpp"
#include "sched/pool.hpp"
#include "simcore/simulator.hpp"
#include "tasks/locality.hpp"
#include "tasks/task_set.hpp"

namespace rupam {

struct SchedulerEnv {
  Simulator* sim = nullptr;
  Cluster* cluster = nullptr;
  /// One executor per node, indexed by NodeId.
  std::vector<Executor*> executors;
};

/// Spark's speculative execution (spark.speculation). Stragglers are
/// judged by SpeculationRule's defaults (sched/speculation.hpp); a round
/// runs at the instant the next one crosses its stage's threshold.
struct SpeculationConfig {
  bool enabled = true;
};

/// Every observation sink a scheduler can feed, in one struct. None are
/// owned; a null field means "detached". Build one Observers and pass it
/// to SchedulerBase::attach — the one way sinks are wired (the old
/// per-sink setters are gone).
struct Observers {
  /// Structured scheduling-event trace.
  EventTrace* trace = nullptr;
  /// Dispatch-decision audit: one DispatchDecision per launch_task.
  DecisionAudit* audit = nullptr;
  /// Host wall-clock profiler: times every try_dispatch round and
  /// taskset submission.
  OverheadProfiler* profiler = nullptr;
};

/// Node-level fault tolerance: missed-heartbeat liveness plus failure
/// blacklisting (Spark's spark.blacklist.*). Disabled by default — as in
/// Spark 2.2 — so fault-free runs schedule no extra timer events and stay
/// bit-identical to earlier seeds. The liveness deadline and blacklist
/// thresholds are run constants (scheduler.cpp).
struct FaultToleranceConfig {
  bool enabled = false;
  SimTime check_interval = 1.0;  // dead-sweep / expiry period
};

/// Spark-style dynamic slot reclaim under FAIR pools: a pool running below
/// its weighted fair share for a starvation timeout gets slots back by
/// killing the newest attempts of the most over-share pool (checkpoint-free
/// kill-and-resubmit — the task requeues with its original submit time, so
/// the wasted work lands in its JCT). Disabled by default: fair-share-only
/// runs schedule no extra timer events and stay bit-identical. The check
/// period, timeout, kill budget and share slack are run constants
/// (scheduler.cpp).
struct PreemptionConfig {
  bool enabled = false;
};

class SchedulerBase {
 public:
  using PartitionSuccessFn =
      std::function<void(StageId stage, int partition, const TaskMetrics&)>;

  explicit SchedulerBase(SchedulerEnv env);
  virtual ~SchedulerBase();

  SchedulerBase(const SchedulerBase&) = delete;
  SchedulerBase& operator=(const SchedulerBase&) = delete;

  virtual std::string name() const = 0;

  /// Entry point from the DAG scheduler.
  void submit(const TaskSet& task_set);
  /// Entry point from the heartbeat service: `node` just beat.
  virtual void on_heartbeat(NodeId node);

  void set_partition_success_handler(PartitionSuccessFn fn) {
    on_partition_success_ = std::move(fn);
  }
  void configure_speculation(const SpeculationConfig& cfg) { speculation_ = cfg; }
  void configure_fault_tolerance(const FaultToleranceConfig& cfg) { fault_tolerance_ = cfg; }
  void configure_preemption(const PreemptionConfig& cfg) { preemption_ = cfg; }
  /// Cross-job scheduling policy (FIFO default, FAIR pools for
  /// multi-tenant runs). See sched/pool.hpp. Refreshes the dense per-pool
  /// spec mirror for pools already interned.
  void configure_pools(PoolConfig cfg);
  const PoolConfig& pools() const { return pools_; }
  /// Observer fired on every task launch with the owning job — the JCT
  /// accountant derives per-job queueing delay from the first launch.
  void set_launch_observer(std::function<void(JobId, SimTime)> fn) {
    on_task_launch_ = std::move(fn);
  }
  /// Attach (or detach, with null fields) every observation sink at once.
  /// This is the only sink-wiring entry point — the per-sink forwarders
  /// that once shadowed it are gone.
  void attach(const Observers& observers);
  const Observers& observers() const { return observers_; }

  /// Replay seam (counterfactual branching, src/replay/): consulted once
  /// per launch_task call with the scheduler's chosen placement and the
  /// prospective attempt id; returning a node replaces the choice for
  /// that one launch. Unset by default — the null check is the only cost,
  /// so recorded traces stay byte-identical.
  using DispatchInterceptor =
      std::function<std::optional<NodeId>(StageId stage, TaskId task, AttemptId attempt,
                                          NodeId chosen)>;
  void set_dispatch_interceptor(DispatchInterceptor fn) { interceptor_ = std::move(fn); }

  /// Whole-DAG visibility hook: Simulation announces each application
  /// before its first stage is submitted. The base class ignores it;
  /// rank-based schedulers (HEFT) precompute per-stage priorities here.
  virtual void register_dag(const Application& app) { (void)app; }

  /// Task attempts launched (primary + speculative), all time.
  std::size_t launches() const { return launches_; }
  /// The attempts of launches() that ran at `locality`, speculative
  /// copies or not.
  std::size_t launches(Locality locality, bool speculative) const {
    return launches_by_locality_[launch_slot(locality, speculative)];
  }
  /// try_dispatch rounds executed.
  std::size_t dispatch_rounds() const { return dispatch_work_.rounds; }

  /// Missed-wake-up oracle, a test seam: with it on, every heartbeat also
  /// requests a round, marked heartbeat-only unless a real request joins
  /// it, and each launch in a heartbeat-only round counts as a miss. Rounds
  /// launch until nothing more fits, so a miss is a change that opened a
  /// launch without requesting a round or setting a wake-up.
  void set_wakeup_oracle(bool on) { wakeup_oracle_ = on; }
  std::size_t missed_wakeups() const { return missed_wakeups_; }

  /// Revive finished tasks whose map outputs were lost to a node crash; if
  /// the stage already drained, the partial stage is submitted afresh.
  /// Wired to DagScheduler::set_resubmit.
  void resubmit(const TaskSet& task_set);

  /// Neither dead (missed heartbeats) nor blacklisted. Always true while
  /// fault tolerance is disabled.
  bool node_usable(NodeId node) const;
  /// Fault tolerance is on and `node` is silent past the missed-heartbeat
  /// threshold now: what the next liveness sweep will declare dead.
  bool heartbeat_overdue(NodeId node) const;
  bool node_blacklisted(NodeId node) const;
  std::size_t blacklist_events() const { return blacklist_count_; }
  std::size_t unblacklist_events() const { return unblacklist_count_; }
  const FaultToleranceConfig& fault_tolerance() const { return fault_tolerance_; }

  /// Successful task attempts, in completion order (feeds every figure).
  const std::vector<TaskMetrics>& completed() const { return completed_; }
  /// Failed attempts (OOM, executor loss) — not straggler relocations.
  const std::vector<TaskMetrics>& failures() const { return failed_; }
  std::size_t straggler_copies() const { return straggler_copies_; }
  std::size_t relocations() const { return relocations_; }
  /// Fair-share reclaim kills (kill-and-resubmit, not failures).
  std::size_t preemptions() const { return preemptions_; }
  std::size_t active_stages() const { return stages_.size(); }

  /// Tasks waiting for a primary launch across all active stages — the
  /// autoscaler's pending-pressure signal.
  std::size_t pending_tasks() const;
  /// Free executor slots on schedulable (live) member nodes.
  int free_slots_total() const;

  /// Wire the executor of a node that joined after construction. Must be
  /// called in NodeId order (the executor list stays dense, indexed by
  /// NodeId) and before the node's kLive transition fires.
  void register_executor(Executor* exec);

  /// Tasks of `pool` currently occupying slots (live attempts, including
  /// speculative copies) — the fair-share "running cores" input.
  int pool_running_tasks(const std::string& pool) const;

  /// Dispatch-cost accounting for the indexed hot paths: work actually
  /// done inside try_dispatch rounds. `node_visits` counts nodes offered
  /// to placement logic once each: a ready node of a ring walk (FIFO,
  /// Spark, HEFT, StageAware's speculative ranking), a ready node scored
  /// into StageAware's per-round heap for a kind (once per round, however
  /// many launches the heap then serves), or an admitted node RUPAM passes
  /// to Algorithm 2. `task_checks` counts tasks examined; for RUPAM that
  /// is the queued refs resolved into a round's row snapshot plus the rows
  /// its candidate filter looks at per offered node.
  struct DispatchWorkCounters {
    std::size_t rounds = 0;
    std::size_t node_visits = 0;
    std::size_t task_checks = 0;
  };
  const DispatchWorkCounters& dispatch_work() const { return dispatch_work_; }

 protected:
  struct Attempt {
    AttemptId id = 0;
    NodeId node = kInvalidNode;
    bool gpu = false;
    /// Resource queue this attempt was dispatched from (RUPAM admission
    /// accounting; Spark leaves it at the default).
    ResourceKind kind = ResourceKind::kCpu;
    std::shared_ptr<TaskExecution> exec;
  };
  struct TaskState {
    TaskSpec spec;
    SimTime submit_time = 0.0;
    bool pending = true;  // needs a (re)launch of the primary attempt
    bool finished = false;
    int failures = 0;
    /// Retry backoff after failures: not relaunchable before this time.
    SimTime not_before = 0.0;
    AttemptId next_attempt = 0;
    std::vector<Attempt> live;

    bool has_attempt_on(NodeId node) const;
    bool has_gpu_attempt() const;
  };
  struct StageState {
    TaskSet set;
    /// Interned pool id (assigned in submit; "" maps to kDefaultPool).
    PoolId pool;
    SimTime submit_time = 0.0;
    std::vector<TaskState> tasks;
    std::size_t remaining = 0;
    /// One runtime per successful task, in ascending order
    /// (insert_finished_runtime), so the straggler threshold is an O(1)
    /// read of the median.
    std::vector<double> finished_runtimes;
    /// Lower bound on the launch time of the tasks the straggler scan can
    /// return: unfinished, exactly one live attempt, no speculative copy
    /// recorded. Lowered when a task joins that set (a launch from zero
    /// live attempts, a failure that leaves one survivor); a scan that
    /// walks the stage resets it to the exact minimum. Leaving the set
    /// needs no update: a stale bound is only looser. kForever = empty.
    SimTime lone_launch_bound = Simulator::kForever;
    /// Indices with pending && !finished, ascending. Tasks in retry
    /// backoff stay in the set (filtered at query time by launchable()).
    std::set<std::size_t> pending_index;
    // Spark delay-scheduling state.
    int allowed_locality = 0;
    SimTime last_launch = 0.0;
  };

  /// Subclass hook: launch whatever fits right now.
  virtual void try_dispatch() = 0;

  /// Active stages in cross-job policy order: FIFO = ascending (job,
  /// stage) submission order; FAIR = pools ranked by weighted fair share
  /// over running tasks (minShare first), FIFO within a pool. Schedulers
  /// walk this instead of stages_ so pool policy decides which job's
  /// taskset is offered resources before per-node placement logic runs.
  /// Returns a reference into member scratch, valid until the next call
  /// (each dispatch round recomputes; never iterate two results at once).
  const std::vector<StageState*>& schedulable_stages();

  /// The pool a stage is billed to (interned at submit; "" → kDefaultPool).
  static PoolId pool_of(const StageState& stage) { return stage.pool; }
  /// Name behind an interned pool id — O(1), no allocation.
  const std::string& pool_name(PoolId id) const { return pool_symbols_.name(id); }

  /// Pool ids in fair-schedule order over the currently active stages.
  /// Reference into member scratch, valid until the next call.
  const std::vector<PoolId>& fair_pool_order();
  /// Subclass hooks around the task life cycle.
  virtual void stage_submitted(StageState& stage) { (void)stage; }
  virtual void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) {
    (void)stage, (void)task, (void)metrics;
  }
  virtual void task_failed(StageState& stage, TaskState& task, const std::string& reason) {
    (void)stage, (void)task, (void)reason;
  }
  virtual void task_relaunchable(StageState& stage, TaskState& task) {
    (void)stage, (void)task;
  }
  /// Fired whenever a task's membership in stage.pending_index changes
  /// (launch clears it, failure/relocation/resubmit restore it). Not fired
  /// for the initial population at submit — build stage indexes in
  /// stage_submitted instead.
  virtual void task_pending_changed(StageState& stage, std::size_t index, bool pending) {
    (void)stage, (void)index, (void)pending;
  }
  /// Fired just before a drained stage is erased from stages_.
  virtual void stage_removed(StageState& stage) { (void)stage; }
  /// Fired when block `key` appears on / disappears from `node`'s cache
  /// (after cache_locations_ was updated).
  virtual void cache_block_changed(NodeId node, const std::string& key, bool present) {
    (void)node, (void)key, (void)present;
  }
  /// Fired on every cluster lifecycle transition, after the base class has
  /// already reconciled its own indexes (maybe-free set, blacklist,
  /// liveness). Subclasses drop or add their per-node structures here
  /// (RUPAM: monitor rows, GPU node list; StageAware: capability ranking).
  virtual void node_membership_changed(NodeId node, NodeLifecycle state) {
    (void)node, (void)state;
  }

  /// Placement rationale a subclass stages for the launch_task call it is
  /// about to make (consumed by that call, success or failure). `reason`
  /// is a stable token from the vocabulary in DESIGN.md §8; `detail`
  /// carries scheduler-specific key=value context.
  struct Explain {
    std::string reason;
    std::string detail;
    int candidates = 0;
    std::vector<NodeId> candidate_nodes;
  };
  /// Stage the rationale for the next launch_task. No-op (and the caller
  /// should skip building strings) while auditing is off.
  void explain_next_launch(Explain explain);
  /// True when an audit sink is attached — schedulers gate rationale
  /// string-building on this.
  bool audit_enabled() const { return audit_ != nullptr; }
  /// True when a trace sink is attached — launch paths gate trace-detail
  /// string construction on this (lazy-observability contract, DESIGN §15).
  bool tracing() const { return trace_ != nullptr; }
  /// Attached profiler (may be null) for subclass-specific sections.
  OverheadProfiler* profiler() const { return profiler_; }

  /// Launch an attempt of `task` on `node`. `speculative` marks extra
  /// copies (primary pending flag untouched). Returns false if the
  /// executor is down. `kind` tags the attempt for per-resource admission
  /// accounting.
  bool launch_task(StageState& stage, TaskState& task, NodeId node, bool use_gpu,
                   bool speculative, ResourceKind kind = ResourceKind::kCpu);

  /// Kill a running attempt and put the task back in the pending pool
  /// (RUPAM's straggler relocation, §III-C3). Returns false if not running.
  bool relocate_task(StageState& stage, TaskState& task, const std::string& reason);

  /// Fair-share reclaim: kill every live attempt of `task` and requeue it
  /// (traced as kTaskPreempted, counted in preemptions(), no failure or
  /// blacklist accounting). Returns false if nothing was running.
  bool preempt_task(StageState& stage, TaskState& task);

  Locality locality_for(const TaskSpec& spec, NodeId node) const;
  Executor* executor(NodeId node) const;
  /// Task is waiting for its primary attempt and past any retry backoff.
  bool launchable(const TaskState& task) const;
  Simulator& sim() const { return *env_.sim; }
  Cluster& cluster() const { return *env_.cluster; }

  /// Lowest-index launchable task of `stage`, via pending_index — the
  /// indexed equivalent of "first launchable task scanning from 0".
  /// Backoff tasks are skipped (and counted as task_checks).
  TaskState* next_launchable(StageState& stage);

  /// Visit nodes that may have a free slot, in NodeId ring order starting
  /// at `start`, until `visit` returns false. Nodes whose executor is down
  /// or slot-full are lazily dropped from the candidate set (they re-enter
  /// via note_node_maybe_free); unusable (dead/blacklisted) nodes are
  /// skipped but kept, since they become usable again (revival, blacklist
  /// expiry) without a slot freeing.
  /// Equivalent to the pre-index `ids[(i + rotation) % n]` sweep
  /// restricted to nodes that pass the free/alive checks. A template so
  /// the per-round visitor lambda never lands in a heap-backed
  /// std::function (the dispatch path is allocation-free).
  template <class Visit>
  void for_each_ready_node(NodeId start, Visit&& visit) {
    // Two arcs of the NodeId ring: [start, end) then [begin, start).
    auto sweep = [&](std::set<NodeId>::iterator it, std::set<NodeId>::iterator end) {
      while (it != end) {
        NodeId node = *it;
        Executor* exec = executor(node);
        if (exec == nullptr || !exec->alive() || exec->free_slots() <= 0) {
          it = maybe_free_.erase(it);
          continue;
        }
        ++it;
        if (!node_usable(node)) continue;
        ++dispatch_work_.node_visits;
        if (!visit(node, *exec)) return false;
      }
      return true;
    };
    if (!sweep(maybe_free_.lower_bound(start), maybe_free_.end())) return;
    sweep(maybe_free_.begin(), maybe_free_.lower_bound(start));
  }
  /// Superset of the nodes with a free slot (lazy deletion — callers must
  /// re-check free_slots/alive/usable at use).
  const std::set<NodeId>& maybe_free_nodes() const { return maybe_free_; }
  /// Re-add `node` to the maybe-free set (slot may have opened).
  void note_node_maybe_free(NodeId node);

  /// Live attempts dispatched from `kind`'s queue currently on `node` —
  /// O(1) replacement for scanning every stage's attempt lists (RUPAM
  /// admission accounting).
  int live_attempts(NodeId node, ResourceKind kind) const;

  /// Executors caching block `key` right now (null if none). Maintained
  /// incrementally from BlockCache change events.
  const std::set<NodeId>* nodes_caching(const std::string& key) const;

  /// True if `task` already received its one speculative copy.
  bool already_speculated(TaskId task) const { return speculated_.count(task) > 0; }

  /// Work accounting inside try_dispatch (see DispatchWorkCounters).
  void note_node_visit() { ++dispatch_work_.node_visits; }
  void note_task_checks(std::size_t n) { dispatch_work_.task_checks += n; }

  /// Coalesced dispatch request.
  void request_dispatch();
  /// Subclass hook, read after every round: the earliest future instant at
  /// which a condition the round read relaxes with time alone (kForever:
  /// none). Spark returns its next delay-scheduling level change.
  virtual SimTime next_relaxation() const { return Simulator::kForever; }
  /// The earliest time at which the monotone predicate `crossed` holds,
  /// searched from `guess`, the instant in exact arithmetic (rounding can
  /// put the real one a few ulps either side).
  template <class Crossed>
  static SimTime first_instant(SimTime guess, Crossed&& crossed) {
    while (!crossed(guess)) guess = std::nextafter(guess, Simulator::kForever);
    for (SimTime prev = std::nextafter(guess, -Simulator::kForever); crossed(prev);
         prev = std::nextafter(prev, -Simulator::kForever)) {
      guess = prev;
    }
    return guess;
  }

  /// Tasks eligible for a speculative copy right now: (stage, task index).
  /// Reference into member scratch, valid until the next call. A stage
  /// whose lone_launch_bound is not past its threshold costs O(1).
  const std::vector<std::pair<StageId, std::size_t>>& find_speculatable();
  /// Records that a speculative copy was launched (stats + dedup).
  void note_speculative_launch(TaskId task);

  /// One failed attempt attributed to `node`; blacklists it once the
  /// failure count inside the window crosses the threshold. Protected so
  /// the blacklist unit tests can drive it directly.
  void note_node_failure(NodeId node);

  SchedulerEnv env_;
  std::map<StageId, StageState> stages_;
  SpeculationConfig speculation_;
  FaultToleranceConfig fault_tolerance_;
  PreemptionConfig preemption_;
  PoolConfig pools_;

 private:
  void handle_success(StageId stage_id, std::size_t task_index, AttemptId attempt,
                      const TaskMetrics& metrics);
  void handle_failure(StageId stage_id, std::size_t task_index, AttemptId attempt,
                      const std::string& reason);
  void run_round();
  /// Request a round at time `t` (> now): the wake-up queue keeps the
  /// pending instants and arms one kernel event at the earliest.
  void wake_at(SimTime t);
  void arm_wakeup();
  void on_wakeup();
  /// After a round: move the one recomputed wake-up (straggler crossing,
  /// next_relaxation) to its new instant.
  void rearm_relaxation();
  /// The earliest future instant a single-attempt, un-copied task passes
  /// its stage's straggler threshold (kForever: none).
  SimTime next_straggler_crossing();
  /// What the straggler scan can return: unfinished, exactly one live
  /// attempt, no speculative copy recorded.
  bool straggler_candidate(const TaskState& task) const;
  void fault_tolerance_tick();
  void preemption_tick();
  /// Base-class reconciliation for a cluster lifecycle transition; runs
  /// before the node_membership_changed subclass hook.
  void handle_membership(NodeId node, NodeLifecycle state);
  /// Shared wiring for construction-time and runtime-registered executors.
  void wire_executor(Executor* exec);

  /// Intern a pool name, growing every dense PoolId-indexed mirror and
  /// recomputing lexicographic ranks on first sighting (rare: once per
  /// distinct pool name over a run). Notifies an attached audit sink so
  /// exports can resolve the pool column.
  PoolId intern_pool(std::string_view name);

  /// Set task.pending, keep stage.pending_index in sync, and fire
  /// task_pending_changed when set membership actually changed.
  void set_task_pending(StageState& stage, std::size_t index, bool pending);
  void on_cache_change(NodeId node, const std::string& key, bool present);
  void note_attempt_started(NodeId node, ResourceKind kind, const StageState& stage);
  void note_attempt_ended(NodeId node, ResourceKind kind, const StageState& stage);

  void trace(TraceEventType type, StageId stage, TaskId task, AttemptId attempt, NodeId node,
             std::string detail, SimTime duration = 0.0);

  PartitionSuccessFn on_partition_success_;
  std::function<void(JobId, SimTime)> on_task_launch_;
  /// Replay override consulted in launch_task (null in normal runs).
  DispatchInterceptor interceptor_;
  /// Attached sinks; trace_/audit_/profiler_ mirror observers_ for the
  /// hot paths.
  Observers observers_;
  EventTrace* trace_ = nullptr;
  DecisionAudit* audit_ = nullptr;
  OverheadProfiler* profiler_ = nullptr;
  Explain pending_explain_;
  bool has_explain_ = false;
  static std::size_t launch_slot(Locality locality, bool speculative) {
    return static_cast<std::size_t>(locality) * 2 + (speculative ? 1 : 0);
  }
  std::size_t launches_ = 0;
  std::array<std::size_t, kNumLocalityLevels * 2> launches_by_locality_{};
  std::vector<TaskMetrics> completed_;
  std::vector<TaskMetrics> failed_;
  std::set<TaskId> speculated_;
  /// Superset of nodes with a free slot (lazy deletion; see
  /// for_each_ready_node).
  std::set<NodeId> maybe_free_;
  /// Per-node live-attempt counts by dispatch kind.
  std::vector<std::array<int, kNumResourceKinds>> live_attempts_;
  /// Interned pool names; id 0 is always kDefaultPool. Per-scheduler, so
  /// concurrent sweep simulations never share state.
  TypedSymbolTable<PoolNameTag> pool_symbols_;
  /// Dense PoolId-indexed mirrors, grown by intern_pool.
  std::vector<PoolSpec> pool_specs_;
  /// PoolId → rank of its name in lexicographic order (the fair_less
  /// name tie-break without the strings).
  std::vector<std::uint32_t> pool_lex_rank_;
  /// Live attempts per pool (fair-share "running cores"), by PoolId.
  std::vector<int> pool_running_;
  /// Active-pool dedup stamps for the per-round pool scans.
  std::vector<std::uint64_t> pool_seen_stamp_;
  std::uint64_t pool_stamp_ = 0;
  // Reused per-round scratch buffers (DESIGN §15 "Dispatch data layout"):
  // cleared, refilled and returned by reference each round, so the steady
  // state allocates nothing once capacities have warmed up.
  std::vector<PoolIdSnapshot> pool_snapshot_scratch_;
  std::vector<PoolId> pool_order_scratch_;
  std::vector<std::size_t> pool_rank_scratch_;
  std::vector<StageState*> stage_order_scratch_;
  std::vector<std::pair<StageId, std::size_t>> speculatable_scratch_;
  std::vector<std::pair<double, std::pair<StageId, std::size_t>>> overdue_scratch_;
  // Preemption-scan scratch (same shape: dense by PoolId).
  std::vector<PoolId> active_pools_scratch_;
  std::vector<double> pool_target_scratch_;
  std::vector<std::size_t> pool_demand_scratch_;
  std::vector<PoolId> due_scratch_;
  std::vector<std::tuple<SimTime, StageState*, std::size_t>> preempt_candidates_scratch_;
  /// Block key → nodes caching it (from BlockCache change events).
  std::map<std::string, std::set<NodeId>> cache_locations_;
  DispatchWorkCounters dispatch_work_;
  std::size_t straggler_copies_ = 0;
  std::size_t relocations_ = 0;
  std::size_t preemptions_ = 0;
  bool dispatch_requested_ = false;
  /// Oracle state: the requested round has only a heartbeat behind it.
  bool wakeup_oracle_ = false;
  bool heartbeat_only_ = false;
  std::size_t missed_wakeups_ = 0;
  /// The wake-up queue: pending instants, one kernel event at the earliest
  /// (a stale, earlier event just re-arms when it fires).
  std::multiset<SimTime> wakeups_;
  EventHandle wake_timer_;
  SimTime wake_armed_at_ = Simulator::kForever;
  /// The queue's entry for rearm_relaxation (kForever: none).
  SimTime relaxation_wake_ = Simulator::kForever;
  EventHandle fault_tolerance_timer_;
  EventHandle preemption_timer_;
  /// PoolId → time it fell below fair share; < 0 = not starved (cleared
  /// when served/reclaimed).
  std::vector<SimTime> starved_since_;
  /// Cluster membership subscription (unsubscribed in the destructor).
  std::size_t membership_token_ = 0;
  NodeLivenessTracker liveness_;
  std::map<NodeId, std::vector<SimTime>> recent_failures_;
  std::map<NodeId, SimTime> blacklisted_until_;
  std::size_t blacklist_count_ = 0;
  std::size_t unblacklist_count_ = 0;
};

}  // namespace rupam
