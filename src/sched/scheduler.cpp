#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "common/log.hpp"
#include "sched/speculation.hpp"

namespace rupam {

namespace {

// Run constants (DESIGN.md §4). A node is dead after this many heartbeat
// periods without a beat.
constexpr int kMissedHeartbeatsDead = 3;
// spark.blacklist.*: this many failed attempts on one node inside the
// sliding window blacklist it for the duration (timed un-blacklist).
constexpr int kBlacklistMaxFailures = 3;
constexpr SimTime kFailureWindow = 60.0;
constexpr SimTime kBlacklistDuration = 120.0;
// FAIR preemption: reclaim-check period; a pool below its share this long
// is starved; kill budget per check; only pools above kShareSlack × their
// fair share lose attempts (hysteresis: never preempt a pool sitting at
// its exact share).
constexpr SimTime kPreemptionInterval = 2.0;
constexpr SimTime kStarvationTimeout = 6.0;
constexpr int kMaxKillsPerRound = 2;
constexpr double kShareSlack = 1.2;

}  // namespace

bool SchedulerBase::TaskState::has_attempt_on(NodeId node) const {
  return std::any_of(live.begin(), live.end(),
                     [node](const Attempt& a) { return a.node == node; });
}

bool SchedulerBase::TaskState::has_gpu_attempt() const {
  return std::any_of(live.begin(), live.end(), [](const Attempt& a) { return a.gpu; });
}

SchedulerBase::SchedulerBase(SchedulerEnv env) : env_(std::move(env)) {
  if (env_.sim == nullptr || env_.cluster == nullptr) {
    throw std::invalid_argument("SchedulerBase: null environment");
  }
  intern_pool(kDefaultPool);  // PoolId 0, always
  for (NodeId id : cluster().node_ids()) {
    if (Executor* e = executor(id)) register_executor(e);
  }
  // Subscribing in the base constructor means the scheduler's indexes are
  // reconciled before any later subscriber (the Simulation's side-effect
  // listener) reacts to the same transition.
  membership_token_ = env_.cluster->subscribe_membership(
      [this](NodeId node, NodeLifecycle state) { handle_membership(node, state); });
}

SchedulerBase::~SchedulerBase() {
  env_.cluster->unsubscribe_membership(membership_token_);
  for (NodeId id : cluster().node_ids()) {
    if (Executor* e = executor(id)) e->cache().set_change_listener(nullptr);
  }
  wake_timer_.cancel();
  fault_tolerance_timer_.cancel();
  preemption_timer_.cancel();
}

void SchedulerBase::register_executor(Executor* e) {
  if (e == nullptr) throw std::invalid_argument("SchedulerBase: null executor");
  NodeId node = e->node().id();
  auto idx = static_cast<std::size_t>(node);
  if (live_attempts_.size() <= idx) live_attempts_.resize(idx + 1);
  maybe_free_.insert(node);
  e->set_ready_handler([this, node](ExecutorId) {
    note_node_maybe_free(node);
    request_dispatch();
  });
  e->set_lost_handler([this, e](ExecutorId id) {
    trace(TraceEventType::kExecutorLost, -1, -1, 0, e->node().id(),
          "executor " + std::to_string(id) + " lost");
    request_dispatch();
  });
  e->cache().set_change_listener([this, node](const std::string& key, bool present) {
    on_cache_change(node, key, present);
  });
}

void SchedulerBase::handle_membership(NodeId node, NodeLifecycle state) {
  switch (state) {
    case NodeLifecycle::kProvisioning:
      break;  // nothing to index yet: the executor registers separately
    case NodeLifecycle::kLive:
      note_node_maybe_free(node);
      node_membership_changed(node, state);
      request_dispatch();
      break;
    case NodeLifecycle::kDraining:
      // No new work: drop from the candidate set now (node_usable would
      // filter it anyway, but keeping it would re-scan it every round).
      maybe_free_.erase(node);
      node_membership_changed(node, state);
      break;
    case NodeLifecycle::kDecommissioned:
      // Purge every per-node structure so the timed un-blacklist path can
      // never resurrect a departed node. The grid reports no beat for a
      // non-member, so the liveness sweep never reaches it again.
      maybe_free_.erase(node);
      blacklisted_until_.erase(node);
      recent_failures_.erase(node);
      if (dead(node)) dead_[static_cast<std::size_t>(node)] = false;
      node_membership_changed(node, state);
      request_dispatch();
      break;
  }
}

bool SchedulerBase::node_usable(NodeId node) const {
  // Lifecycle gate first: draining/decommissioned/provisioning nodes never
  // take new work, independent of the fault-tolerance machinery. Static
  // fleets are always live, so this is a no-op for them.
  if (!cluster().schedulable(node)) return false;
  if (!fault_tolerance_.enabled) return true;
  if (dead(node)) return false;
  auto it = blacklisted_until_.find(node);
  return it == blacklisted_until_.end() || sim().now() >= it->second;
}

bool SchedulerBase::heartbeat_overdue(NodeId node) const {
  if (!fault_tolerance_.enabled || env_.heartbeats == nullptr) return false;
  // Strict: the last beat may still be in flight at exactly the deadline.
  std::optional<SimTime> last = env_.heartbeats->last_beat(node);
  return last && sim().now() - *last > kHeartbeatPeriod * kMissedHeartbeatsDead;
}

bool SchedulerBase::node_blacklisted(NodeId node) const {
  auto it = blacklisted_until_.find(node);
  return it != blacklisted_until_.end() && sim().now() < it->second;
}

bool SchedulerBase::launchable(const TaskState& task) const {
  return task.pending && !task.finished && sim().now() >= task.not_before;
}

void SchedulerBase::configure_pools(PoolConfig cfg) {
  pools_ = std::move(cfg);
  // Pools interned before this call (at minimum kDefaultPool) pick up
  // their configured weight/minShare in the dense mirror.
  for (std::uint32_t i = 0; i < pool_symbols_.size(); ++i) {
    pool_specs_[i] = pools_.spec(pool_symbols_.name(PoolId(i)));
  }
}

PoolId SchedulerBase::intern_pool(std::string_view name) {
  std::size_t before = pool_symbols_.size();
  PoolId id = pool_symbols_.intern(name);
  if (pool_symbols_.size() == before) return id;  // already known
  pool_specs_.push_back(pools_.spec(pool_symbols_.name(id)));
  pool_running_.push_back(0);
  starved_since_.push_back(-1.0);
  pool_seen_stamp_.push_back(0);
  // Recompute lexicographic ranks — O(P log P), once per distinct pool
  // name over a run, so the fair_less tie-break never compares strings.
  std::size_t n = pool_symbols_.size();
  std::vector<std::uint32_t> by_name(n);
  for (std::uint32_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(), [this](std::uint32_t a, std::uint32_t b) {
    return pool_symbols_.name(PoolId(a)) < pool_symbols_.name(PoolId(b));
  });
  pool_lex_rank_.resize(n);
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    pool_lex_rank_[by_name[rank]] = rank;
  }
  if (audit_ != nullptr) audit_->note_pool(id, pool_symbols_.name(id));
  return id;
}

int SchedulerBase::pool_running_tasks(const std::string& pool) const {
  PoolId id = pool_symbols_.find(pool);
  return id.valid() ? pool_running_[id.index()] : 0;
}

const std::vector<PoolId>& SchedulerBase::fair_pool_order() {
  // Live-attempt counts come from the incrementally maintained per-pool
  // tally — a live attempt always belongs to an active stage (stages are
  // erased only once fully drained), so this matches summing over stages_.
  pool_snapshot_scratch_.clear();
  ++pool_stamp_;
  for (const auto& [id, stage] : stages_) {
    std::size_t p = stage.pool.index();
    if (pool_seen_stamp_[p] == pool_stamp_) continue;
    pool_seen_stamp_[p] = pool_stamp_;
    const PoolSpec& spec = pool_specs_[p];
    pool_snapshot_scratch_.push_back(
        PoolIdSnapshot{stage.pool, pool_lex_rank_[p], pool_running_[p], spec.weight,
                       spec.min_share});
  }
  std::sort(pool_snapshot_scratch_.begin(), pool_snapshot_scratch_.end(),
            [](const PoolIdSnapshot& a, const PoolIdSnapshot& b) { return fair_less(a, b); });
  pool_order_scratch_.clear();
  for (const PoolIdSnapshot& snap : pool_snapshot_scratch_) {
    pool_order_scratch_.push_back(snap.id);
  }
  return pool_order_scratch_;
}

const std::vector<SchedulerBase::StageState*>& SchedulerBase::schedulable_stages() {
  stage_order_scratch_.clear();
  for (auto& [id, stage] : stages_) stage_order_scratch_.push_back(&stage);
  auto fifo_less = [](const StageState* a, const StageState* b) {
    if (a->set.job != b->set.job) return a->set.job < b->set.job;
    return a->set.stage < b->set.stage;
  };
  if (pools_.policy == PoolPolicy::kFifo) {
    // Spark FIFO: job priority (submission order) first, then stage id —
    // identical to the historical stage-id map order for one application.
    std::sort(stage_order_scratch_.begin(), stage_order_scratch_.end(), fifo_less);
    return stage_order_scratch_;
  }
  const std::vector<PoolId>& order = fair_pool_order();
  if (pool_rank_scratch_.size() < pool_symbols_.size()) {
    pool_rank_scratch_.resize(pool_symbols_.size());
  }
  for (std::size_t i = 0; i < order.size(); ++i) pool_rank_scratch_[order[i].index()] = i;
  std::sort(stage_order_scratch_.begin(), stage_order_scratch_.end(),
            [this, &fifo_less](const StageState* a, const StageState* b) {
              std::size_t ra = pool_rank_scratch_[a->pool.index()];
              std::size_t rb = pool_rank_scratch_[b->pool.index()];
              if (ra != rb) return ra < rb;
              return fifo_less(a, b);  // FIFO within a pool
            });
  return stage_order_scratch_;
}

Locality SchedulerBase::locality_for(const TaskSpec& spec, NodeId node) const {
  return locality_of(spec, node, [this](NodeId n, const std::string& key) {
    Executor* e = executor(n);
    return e != nullptr && e->cache().contains(key);
  });
}

void SchedulerBase::attach(const Observers& observers) {
  observers_ = observers;
  trace_ = observers.trace;
  audit_ = observers.audit;
  profiler_ = observers.profiler;
  if (audit_ != nullptr) {
    // Backfill the audit's PoolId → name table for pools interned before
    // the sink was attached; later interns notify incrementally.
    for (std::uint32_t i = 0; i < pool_symbols_.size(); ++i) {
      audit_->note_pool(PoolId(i), pool_symbols_.name(PoolId(i)));
    }
  }
}

void SchedulerBase::submit(const TaskSet& task_set) {
  OverheadProfiler::Scope profile(profiler_, ProfileSection::kEnqueue);
  task_set.validate();
  StageState stage;
  stage.set = task_set;
  stage.pool = intern_pool(task_set.pool.empty() ? std::string_view(kDefaultPool)
                                                 : std::string_view(task_set.pool));
  stage.submit_time = sim().now();
  stage.remaining = task_set.size();
  stage.tasks.reserve(task_set.size());
  for (const auto& spec : task_set.tasks) {
    TaskState ts;
    ts.spec = spec;
    ts.submit_time = sim().now();
    stage.pending_index.insert(stage.pending_index.end(), stage.tasks.size());
    stage.tasks.push_back(std::move(ts));
  }
  auto [it, inserted] = stages_.emplace(task_set.stage, std::move(stage));
  if (!inserted) throw std::logic_error("SchedulerBase: stage already active");
  trace(TraceEventType::kStageSubmitted, task_set.stage, -1, 0, kInvalidNode,
        task_set.stage_name);
  stage_submitted(it->second);
  if (fault_tolerance_.enabled && !fault_tolerance_timer_.pending()) {
    fault_tolerance_timer_ =
        sim().schedule_after(fault_tolerance_.check_interval, [this] { fault_tolerance_tick(); });
  }
  if (preemption_.enabled && !preemption_timer_.pending()) {
    preemption_timer_ =
        sim().schedule_after(kPreemptionInterval, [this] { preemption_tick(); });
  }
  request_dispatch();
}

void SchedulerBase::on_heartbeat(NodeId node) {
  if (fault_tolerance_.enabled) {
    // A beat opens a node only by reviving it or by ending a silence that
    // heartbeat_overdue closed it for: the grid delivers that beat. The
    // grid records it only after its listeners return, so the overdue
    // test here still reads the silence it ends. Nothing later in this
    // delivery reads liveness: RUPAM's memory check runs before this
    // handler, and a requested round runs as its own event.
    if (dead(node)) {
      dead_[static_cast<std::size_t>(node)] = false;
      trace(TraceEventType::kNodeRecovered, -1, -1, 0, node, "heartbeats resumed");
      RUPAM_INFO(sim().now(), name(), ": node ", node, " recovered (heartbeats resumed)");
      note_node_maybe_free(node);
      request_dispatch();
    } else if (heartbeat_overdue(node)) {
      request_dispatch();
    }
  }
  if (wakeup_oracle_ && !dispatch_requested_) {
    request_dispatch();
    heartbeat_only_ = true;  // until a real request joins the round
  }
}

void SchedulerBase::fault_tolerance_tick() {
  SimTime now = sim().now();
  dead_.resize(cluster().size());  // joiners start alive
  for (std::size_t i = 0; i < dead_.size(); ++i) {
    NodeId node = static_cast<NodeId>(i);
    if (dead_[i] || !heartbeat_overdue(node)) continue;
    dead_[i] = true;
    trace(TraceEventType::kNodeDead, -1, -1, 0, node, "missed heartbeats");
    RUPAM_WARN(now, name(), ": node ", node, " declared dead (missed heartbeats)");
  }
  for (auto it = blacklisted_until_.begin(); it != blacklisted_until_.end();) {
    if (now >= it->second) {
      trace(TraceEventType::kNodeUnblacklisted, -1, -1, 0, it->first, "blacklist expired");
      RUPAM_INFO(now, name(), ": node ", it->first, " un-blacklisted");
      ++unblacklist_count_;
      recent_failures_.erase(it->first);
      note_node_maybe_free(it->first);
      it = blacklisted_until_.erase(it);
      request_dispatch();
    } else {
      ++it;
    }
  }
  fault_tolerance_timer_ =
      sim().schedule_after(fault_tolerance_.check_interval, [this] { fault_tolerance_tick(); });
}

void SchedulerBase::note_node_failure(NodeId node) {
  if (!fault_tolerance_.enabled) return;
  // Failures racing a decommission (the executor teardown notifies after
  // the membership purge) must not re-enter the node into the blacklist.
  if (!cluster().member(node)) return;
  SimTime now = sim().now();
  auto& times = recent_failures_[node];
  std::erase_if(times,
                [&](SimTime t) { return t < now - kFailureWindow; });
  times.push_back(now);
  if (static_cast<int>(times.size()) < kBlacklistMaxFailures) return;
  if (blacklisted_until_.count(node) > 0) return;
  // Never blacklist the last usable node — a fully-blacklisted cluster
  // would deadlock the job (Spark aborts instead; we keep running).
  bool other_usable = false;
  for (std::size_t n = 0; n < cluster().size(); ++n) {
    NodeId other = static_cast<NodeId>(n);
    if (other != node && node_usable(other)) {
      other_usable = true;
      break;
    }
  }
  if (!other_usable) return;
  blacklisted_until_[node] = now + kBlacklistDuration;
  // node_usable reads the clock: the node reopens at that instant, before
  // the next fault-tolerance tick un-blacklists it.
  wake_at(now + kBlacklistDuration);
  ++blacklist_count_;
  trace(TraceEventType::kNodeBlacklisted, -1, -1, 0, node,
        std::to_string(times.size()) + " failures in window");
  RUPAM_WARN(now, name(), ": node ", node, " blacklisted until ", now + kBlacklistDuration);
}

void SchedulerBase::resubmit(const TaskSet& task_set) {
  auto it = stages_.find(task_set.stage);
  if (it == stages_.end()) {
    // Stage already drained: re-activate it with just the lost partitions.
    for (const auto& spec : task_set.tasks) {
      trace(TraceEventType::kPartitionResubmitted, task_set.stage, spec.id, 0, kInvalidNode,
            "stage re-activated");
    }
    submit(task_set);
    return;
  }
  StageState& stage = it->second;
  for (const auto& spec : task_set.tasks) {
    TaskState* found = nullptr;
    for (auto& task : stage.tasks) {
      if (task.spec.id == spec.id) {
        found = &task;
        break;
      }
    }
    if (found == nullptr) {
      // The active stage is itself a partial resubmission that lacks this
      // partition (two crashes hit the same stage): graft the task in.
      stage.set.tasks.push_back(spec);
      TaskState ts;
      ts.spec = spec;
      ts.submit_time = sim().now();
      stage.tasks.push_back(std::move(ts));
      ++stage.remaining;
      trace(TraceEventType::kPartitionResubmitted, task_set.stage, spec.id, 0, kInvalidNode,
            "grafted into partial stage");
      set_task_pending(stage, stage.tasks.size() - 1, true);
      task_relaunchable(stage, stage.tasks.back());
      continue;
    }
    if (!found->finished) continue;  // already being recomputed
    found->finished = false;
    set_task_pending(stage, static_cast<std::size_t>(found - stage.tasks.data()), true);
    found->not_before = sim().now();
    ++stage.remaining;
    trace(TraceEventType::kPartitionResubmitted, task_set.stage, spec.id, 0, kInvalidNode,
          "map output lost");
    task_relaunchable(stage, *found);
  }
  request_dispatch();
}

void SchedulerBase::trace(TraceEventType type, StageId stage, TaskId task, AttemptId attempt,
                          NodeId node, std::string detail, SimTime duration) {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.time = sim().now();
  e.type = type;
  e.stage = stage;
  e.task = task;
  e.attempt = attempt;
  e.node = node;
  e.detail = std::move(detail);
  e.duration = duration;
  trace_->record(std::move(e));
}

void SchedulerBase::request_dispatch() {
  heartbeat_only_ = false;
  if (dispatch_requested_) return;
  dispatch_requested_ = true;
  sim().schedule_after(0.0, [this] { run_round(); });
}

void SchedulerBase::run_round() {
  dispatch_requested_ = false;
  bool heartbeat_only = heartbeat_only_;
  heartbeat_only_ = false;
  ++dispatch_work_.rounds;
  std::size_t launches_before = launches_;
  if (profiler_ != nullptr && profiler_->counting_allocs()) {
    // Allocation accounting (bench-only: a replaced operator new feeds
    // the counter). Rounds that launch nothing are the steady state the
    // zero-allocation gate covers; launch rounds allocate the attempt's
    // execution state by design.
    std::uint64_t allocs_before = profiler_->read_allocs();
    {
      OverheadProfiler::Scope profile(profiler_, ProfileSection::kDispatch);
      try_dispatch();
    }
    profiler_->note_dispatch_allocs(launches_ != launches_before,
                                    profiler_->read_allocs() - allocs_before);
  } else {
    OverheadProfiler::Scope profile(profiler_, ProfileSection::kDispatch);
    try_dispatch();
  }
  if (heartbeat_only) missed_wakeups_ += launches_ - launches_before;
  rearm_relaxation();
}

void SchedulerBase::wake_at(SimTime t) {
  wakeups_.insert(t);
  arm_wakeup();
}

void SchedulerBase::arm_wakeup() {
  if (wakeups_.empty()) return;
  SimTime first = *wakeups_.begin();
  if (wake_timer_.pending() && wake_armed_at_ <= first) return;
  wake_timer_.cancel();
  wake_armed_at_ = first;
  wake_timer_ = sim().schedule_at(first, [this] { on_wakeup(); });
}

void SchedulerBase::on_wakeup() {
  SimTime now = sim().now();
  bool due = false;
  while (!wakeups_.empty() && *wakeups_.begin() <= now) {
    if (*wakeups_.begin() == relaxation_wake_) relaxation_wake_ = Simulator::kForever;
    wakeups_.erase(wakeups_.begin());
    due = true;
  }
  if (due) request_dispatch();
  arm_wakeup();
}

void SchedulerBase::rearm_relaxation() {
  SimTime next = std::min(next_straggler_crossing(), next_relaxation());
  if (next == relaxation_wake_) return;
  if (relaxation_wake_ < Simulator::kForever) {
    wakeups_.erase(wakeups_.find(relaxation_wake_));
  }
  relaxation_wake_ = next;
  if (next < Simulator::kForever) wake_at(next);
}

bool SchedulerBase::launch_task(StageState& stage, TaskState& task, NodeId node, bool use_gpu,
                                bool speculative, ResourceKind kind, Explain* explain) {
  StageId stage_id = stage.set.stage;
  // Replay seam: a branch override may redirect this one launch. The
  // interceptor sees the prospective attempt id (next_attempt is only
  // consumed further down, once the launch is committed to an executor).
  if (interceptor_) {
    if (std::optional<NodeId> forced =
            interceptor_(stage_id, task.spec.id, task.next_attempt, node)) {
      node = *forced;
    }
  }
  if (!node_usable(node)) return false;
  Executor* exec = executor(node);
  if (exec == nullptr || !exec->alive()) return false;
  std::size_t task_index = static_cast<std::size_t>(&task - stage.tasks.data());

  LaunchOptions opts;
  opts.use_gpu = use_gpu && task.spec.gpu_accelerable;
  opts.locality = locality_for(task.spec, node);
  opts.submit_time = speculative ? sim().now() : task.submit_time;
  opts.attempt = task.next_attempt++;
  AttemptId attempt_id = opts.attempt;

  auto handle = exec->launch(
      task.spec, opts,
      [this, stage_id, task_index, attempt_id](const TaskMetrics& metrics) {
        handle_success(stage_id, task_index, attempt_id, metrics);
      },
      [this, stage_id, task_index, attempt_id](const TaskSpec&, AttemptId,
                                               const std::string& reason) {
        handle_failure(stage_id, task_index, attempt_id, reason);
      });
  if (handle == nullptr) return false;

  task.live.push_back(Attempt{attempt_id, node, opts.use_gpu, kind, handle});
  if (task.live.size() == 1) {
    stage.lone_launch_bound = std::min(stage.lone_launch_bound, handle->launch_time());
  }
  note_attempt_started(node, kind, stage);
  ++launches_;
  ++launches_by_locality_[launch_slot(opts.locality, speculative)];
  if (audit_ != nullptr) {
    DispatchDecision d;
    d.time = sim().now();
    d.scheduler = name();
    d.stage = stage_id;
    d.task = task.spec.id;
    d.attempt = attempt_id;
    d.node = node;
    d.locality = opts.locality;
    d.pool = stage.pool;
    d.speculative = speculative;
    d.queue = kind;
    if (explain != nullptr) {
      d.reason = std::move(explain->reason);
      d.detail = std::move(explain->detail);
      d.candidates_considered = explain->candidates;
      d.candidate_nodes = std::move(explain->candidate_nodes);
    } else {
      // Subclass gave no rationale (direct launch path): still auditable.
      d.reason = speculative ? "speculative_copy" : "direct_launch";
      d.candidates_considered = 1;
      d.candidate_nodes = {node};
    }
    audit_->record(std::move(d));
  }
  if (trace_ != nullptr) {
    // Detail string built only when a sink will record it — with tracing
    // off, the launch path constructs no strings at all.
    trace(speculative ? TraceEventType::kSpeculativeLaunched : TraceEventType::kTaskLaunched,
          stage_id, task.spec.id, attempt_id, node, std::string(to_string(opts.locality)));
  }
  if (on_task_launch_) on_task_launch_(stage.set.job, sim().now());
  if (!speculative) set_task_pending(stage, task_index, false);
  stage.last_launch = sim().now();
  RUPAM_DEBUG(sim().now(), name(), ": launched task ", task.spec.id, " attempt ", attempt_id,
              " on node ", node, speculative ? " (speculative)" : "",
              opts.use_gpu ? " [gpu]" : "");
  return true;
}

bool SchedulerBase::requeue_task(StageState& stage, TaskState& task,
                                 const std::string& kill_reason, TraceEventType type,
                                 std::string detail) {
  if (task.finished || task.live.empty()) return false;
  if (trace_ != nullptr) {
    trace(type, stage.set.stage, task.spec.id, task.live.front().id, task.live.front().node,
          std::move(detail));
  }
  // Silent kills: no failure callback touches task.live while we walk it.
  for (const Attempt& attempt : task.live) {
    attempt.exec->kill(kill_reason, /*notify=*/false);
    note_attempt_ended(attempt.node, attempt.kind, stage);
    note_node_maybe_free(attempt.node);
  }
  task.live.clear();
  set_task_pending(stage, static_cast<std::size_t>(&task - stage.tasks.data()), true);
  task_relaunchable(stage, task);
  request_dispatch();
  return true;
}

bool SchedulerBase::relocate_task(StageState& stage, TaskState& task,
                                  const std::string& reason) {
  if (!requeue_task(stage, task, reason, TraceEventType::kTaskRelocated, reason)) return false;
  ++relocations_;
  return true;
}

bool SchedulerBase::preempt_task(StageState& stage, TaskState& task) {
  const std::string& pool = pool_name(stage.pool);
  if (!requeue_task(stage, task, "preempted", TraceEventType::kTaskPreempted,
                    tracing() ? "fair-share reclaim from pool " + pool : std::string())) {
    return false;
  }
  ++preemptions_;
  RUPAM_INFO(sim().now(), name(), ": preempted task ", task.spec.id, " (pool ", pool, ")");
  return true;
}

void SchedulerBase::handle_success(StageId stage_id, std::size_t task_index, AttemptId attempt,
                                   const TaskMetrics& metrics) {
  auto it = stages_.find(stage_id);
  if (it == stages_.end()) return;
  StageState& stage = it->second;
  TaskState& task = stage.tasks.at(task_index);
  // Drop this attempt from the live list (its slot is free now either way,
  // even when a sibling copy already won).
  for (const auto& a : task.live) {
    if (a.id != attempt) continue;
    note_attempt_ended(a.node, a.kind, stage);
    note_node_maybe_free(a.node);
    break;
  }
  std::erase_if(task.live, [attempt](const Attempt& a) { return a.id == attempt; });
  if (task.finished) return;  // a sibling copy already won
  task.finished = true;
  set_task_pending(stage, task_index, false);
  // First finisher wins: abort the losing copies (Spark kills them).
  for (auto& other : task.live) {
    other.exec->kill("attempt superseded", /*notify=*/false);
    note_attempt_ended(other.node, other.kind, stage);
    note_node_maybe_free(other.node);
  }
  task.live.clear();

  if (trace_ != nullptr) {
    trace(TraceEventType::kTaskFinished, stage_id, metrics.task, attempt, metrics.node,
          std::string(to_string(metrics.locality)), metrics.run_time());
  }
  completed_.push_back(metrics);
  if (speculation_.enabled) insert_finished_runtime(stage.finished_runtimes, metrics.run_time());
  --stage.remaining;
  task_succeeded(stage, task, metrics);
  if (on_partition_success_) {
    on_partition_success_(stage_id, metrics.partition, metrics);
  }
  if (stage.remaining == 0) {
    RUPAM_DEBUG(sim().now(), name(), ": stage ", stage_id, " drained");
    stage_removed(stage);
    stages_.erase(stage_id);
  }
  request_dispatch();
}

void SchedulerBase::handle_failure(StageId stage_id, std::size_t task_index, AttemptId attempt,
                                   const std::string& reason) {
  auto it = stages_.find(stage_id);
  if (it == stages_.end()) return;
  StageState& stage = it->second;
  TaskState& task = stage.tasks.at(task_index);
  NodeId failed_node = kInvalidNode;
  for (const auto& a : task.live) {
    if (a.id == attempt) {
      failed_node = a.node;
      note_attempt_ended(a.node, a.kind, stage);
      note_node_maybe_free(a.node);
      break;
    }
  }
  std::erase_if(task.live, [attempt](const Attempt& a) { return a.id == attempt; });
  if (task.finished) return;
  if (task.live.size() == 1) {
    // The survivor may be older than the bound: RUPAM's GPU race copy is
    // not a recorded speculative copy, so its primary rejoins the set.
    stage.lone_launch_bound =
        std::min(stage.lone_launch_bound, task.live.front().exec->launch_time());
  }

  TaskMetrics failure;
  failure.task = task.spec.id;
  failure.stage = stage_id;
  failure.stage_name = stage.set.stage_name;
  failure.partition = task.spec.partition;
  failure.node = failed_node;
  failure.failed = true;
  failure.failure_reason = reason;
  failure.finish_time = sim().now();
  failed_.push_back(failure);
  trace(TraceEventType::kTaskFailed, stage_id, task.spec.id, attempt, kInvalidNode, reason);

  ++task.failures;
  RUPAM_INFO(sim().now(), name(), ": task ", task.spec.id, " attempt ", attempt, " failed (",
             reason, "), failure #", task.failures);
  if (task.live.empty()) set_task_pending(stage, task_index, true);  // relaunch
  // Exponential retry backoff: a crash-looping task (e.g. OOM on a packed
  // node) must not be re-stuffed into the same wave instantly.
  task.not_before =
      sim().now() + std::min(30.0, std::exp2(static_cast<double>(task.failures)));
  if (task.pending) wake_at(task.not_before);
  if (fault_tolerance_.enabled && failed_node != kInvalidNode) {
    note_node_failure(failed_node);
  }
  task_failed(stage, task, reason);
  request_dispatch();
}

std::size_t SchedulerBase::pending_tasks() const {
  std::size_t n = 0;
  for (const auto& [id, stage] : stages_) n += stage.pending_index.size();
  return n;
}

int SchedulerBase::free_slots_total() const {
  int total = 0;
  for (std::size_t i = 0; i < cluster().size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (!cluster().schedulable(id)) continue;
    Executor* e = executor(id);
    if (e != nullptr && e->alive()) total += e->free_slots();
  }
  return total;
}

void SchedulerBase::preemption_tick() {
  preemption_timer_ =
      sim().schedule_after(kPreemptionInterval, [this] { preemption_tick(); });
  if (pools_.policy != PoolPolicy::kFair || stages_.empty()) {
    std::fill(starved_since_.begin(), starved_since_.end(), -1.0);
    return;
  }
  SimTime now = sim().now();
  std::size_t n = pool_symbols_.size();
  // Dense per-pool demand, then the active-pool list in lexicographic
  // name order — the iteration order the historical std::map version used,
  // which decides starvation refresh order, `due` order, and first-max
  // victim ties.
  if (pool_demand_scratch_.size() < n) pool_demand_scratch_.resize(n);
  std::fill(pool_demand_scratch_.begin(), pool_demand_scratch_.end(), 0);
  for (const auto& [id, stage] : stages_) {
    pool_demand_scratch_[stage.pool.index()] += stage.pending_index.size();
  }
  active_pools_scratch_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pool_running_[i] > 0 || pool_demand_scratch_[i] > 0) {
      active_pools_scratch_.push_back(PoolId(i));
    }
  }
  std::sort(active_pools_scratch_.begin(), active_pools_scratch_.end(),
            [this](PoolId a, PoolId b) {
              return pool_lex_rank_[a.index()] < pool_lex_rank_[b.index()];
            });
  // Weighted fair-share targets over the active pools.
  if (pool_target_scratch_.size() < n) pool_target_scratch_.resize(n);
  double total_weight = 0.0;
  int running_total = 0;
  for (PoolId pool : active_pools_scratch_) {
    total_weight += pool_specs_[pool.index()].weight;
    running_total += pool_running_[pool.index()];
  }
  double capacity = static_cast<double>(running_total + free_slots_total());
  for (PoolId pool : active_pools_scratch_) {
    pool_target_scratch_[pool.index()] =
        total_weight <= 0.0 ? 0.0
                            : capacity * pool_specs_[pool.index()].weight / total_weight;
  }
  // Refresh starvation clocks: a pool is starved while it has demand and
  // runs below its fair share.
  due_scratch_.clear();
  for (PoolId pool : active_pools_scratch_) {
    std::size_t i = pool.index();
    bool starved = pool_demand_scratch_[i] > 0 &&
                   static_cast<double>(pool_running_[i]) + 0.5 < pool_target_scratch_[i];
    if (!starved) {
      starved_since_[i] = -1.0;
      continue;
    }
    if (starved_since_[i] < 0.0) {
      starved_since_[i] = now;
    } else if (now - starved_since_[i] >= kStarvationTimeout) {
      due_scratch_.push_back(pool);
    }
  }
  if (due_scratch_.empty()) return;
  // Victim pool: the one furthest above its share, with hysteresis.
  int kills_left = kMaxKillsPerRound;
  for (PoolId starved_pool : due_scratch_) {
    if (kills_left <= 0) break;
    PoolId victim;
    double worst_excess = 0.0;
    for (PoolId pool : active_pools_scratch_) {
      if (pool == starved_pool) continue;
      double target = pool_target_scratch_[pool.index()];
      double over = static_cast<double>(pool_running_[pool.index()]) -
                    std::max(target * kShareSlack, target + 0.5);
      if (over > worst_excess) {
        worst_excess = over;
        victim = pool;
      }
    }
    if (!victim.valid()) continue;
    // Kill the victim pool's newest attempts first: least wasted work.
    preempt_candidates_scratch_.clear();
    for (auto& [id, stage] : stages_) {
      if (stage.pool != victim) continue;
      for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
        TaskState& task = stage.tasks[i];
        if (task.finished || task.live.empty()) continue;
        SimTime newest = 0.0;
        for (const auto& a : task.live) newest = std::max(newest, a.exec->launch_time());
        preempt_candidates_scratch_.emplace_back(newest, &stage, i);
      }
    }
    std::sort(preempt_candidates_scratch_.begin(), preempt_candidates_scratch_.end(),
              [](const auto& a, const auto& b) { return std::get<0>(a) > std::get<0>(b); });
    std::size_t want = static_cast<std::size_t>(
        std::max(0.0, pool_target_scratch_[starved_pool.index()] -
                          static_cast<double>(pool_running_[starved_pool.index()])));
    std::size_t killed = 0;
    for (const auto& [launched, stage, index] : preempt_candidates_scratch_) {
      if (kills_left <= 0 || killed >= std::max<std::size_t>(want, 1)) break;
      if (preempt_task(*stage, stage->tasks[index])) {
        --kills_left;
        ++killed;
      }
    }
    if (killed > 0) starved_since_[starved_pool.index()] = -1.0;  // fresh timeout
  }
}

const std::vector<std::pair<StageId, std::size_t>>& SchedulerBase::find_speculatable() {
  overdue_scratch_.clear();
  walk_stragglers(overdue_scratch_);
  sort_overdue(overdue_scratch_);
  speculatable_scratch_.clear();
  speculatable_scratch_.reserve(overdue_scratch_.size());
  for (const Overdue& o : overdue_scratch_) speculatable_scratch_.emplace_back(o.stage, o.index);
  return speculatable_scratch_;
}

void SchedulerBase::walk_stragglers(std::vector<Overdue>& out, StageState* only) {
  if (!speculation_.enabled) return;
  const SpeculationRule rule;
  const SimTime now = sim().now();
  auto walk = [&](StageState& stage) {
    SimTime threshold = straggler_threshold(stage.finished_runtimes, stage.tasks.size(), rule);
    if (threshold < 0.0) return;
    // Exact skip: the walk's `now - launch > threshold` is monotone in the
    // launch time, so if the bound fails it, every candidate fails it.
    if (!(now - stage.lone_launch_bound > threshold)) return;
    SimTime oldest = Simulator::kForever;
    for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
      TaskState& task = stage.tasks[i];
      if (!straggler_candidate(task)) continue;
      SimTime launched = task.live.front().exec->launch_time();
      oldest = std::min(oldest, launched);
      SimTime elapsed = now - launched;
      if (is_straggler(elapsed, threshold)) {
        out.push_back(Overdue{elapsed / threshold, stage.set.stage, i});
      }
    }
    stage.lone_launch_bound = oldest;
  };
  if (only != nullptr) {
    walk(*only);
    return;
  }
  ++dispatch_work_.straggler_walks;
  for (auto& [stage_id, stage] : stages_) walk(stage);
}

SimTime SchedulerBase::next_straggler_crossing() {
  if (!speculation_.enabled) return Simulator::kForever;
  const SpeculationRule rule;
  const SimTime now = sim().now();
  SimTime next = Simulator::kForever;
  auto crossing = [&](SimTime launched, SimTime threshold) {
    return first_instant(launched + threshold,
                         [&](SimTime t) { return is_straggler(t - launched, threshold); });
  };
  for (auto& [stage_id, stage] : stages_) {
    if (stage.lone_launch_bound == Simulator::kForever) continue;
    SimTime threshold = straggler_threshold(stage.finished_runtimes, stage.tasks.size(), rule);
    if (threshold < 0.0) continue;
    if (!is_straggler(now - stage.lone_launch_bound, threshold)) {
      // No candidate is overdue yet, and none crosses before the bound.
      next = std::min(next, crossing(stage.lone_launch_bound, threshold));
      continue;
    }
    // Some candidate may already be overdue (the rounds offer it a copy
    // whenever a slot frees): walk for the earliest one that is not, and
    // tighten the bound to the exact minimum as find_speculatable does.
    SimTime oldest = Simulator::kForever;
    for (const TaskState& task : stage.tasks) {
      if (!straggler_candidate(task)) continue;
      SimTime launched = task.live.front().exec->launch_time();
      oldest = std::min(oldest, launched);
      if (!is_straggler(now - launched, threshold)) {
        next = std::min(next, crossing(launched, threshold));
      }
    }
    stage.lone_launch_bound = oldest;
  }
  return next;
}

bool SchedulerBase::straggler_candidate(const TaskState& task) const {
  return !task.finished && task.live.size() == 1 && speculated_.count(task.spec.id) == 0;
}

void SchedulerBase::note_speculative_launch(TaskId task) {
  speculated_.insert(task);
  ++straggler_copies_;
}

void SchedulerBase::set_task_pending(StageState& stage, std::size_t index, bool pending) {
  stage.tasks[index].pending = pending;
  bool changed = pending ? stage.pending_index.insert(index).second
                         : stage.pending_index.erase(index) > 0;
  if (changed) task_pending_changed(stage, index, pending);
}

SchedulerBase::TaskState* SchedulerBase::next_launchable(StageState& stage) {
  SimTime now = sim().now();
  for (std::size_t index : stage.pending_index) {
    ++dispatch_work_.task_checks;
    TaskState& task = stage.tasks[index];
    if (now < task.not_before) continue;  // retry backoff
    return &task;
  }
  return nullptr;
}

void SchedulerBase::note_node_maybe_free(NodeId node) {
  if (executor(node) != nullptr) maybe_free_.insert(node);
}

int SchedulerBase::live_attempts(NodeId node, ResourceKind kind) const {
  if (node < 0 || static_cast<std::size_t>(node) >= live_attempts_.size()) return 0;
  return live_attempts_[static_cast<std::size_t>(node)][static_cast<std::size_t>(kind)];
}

void SchedulerBase::note_attempt_started(NodeId node, ResourceKind kind,
                                         const StageState& stage) {
  if (node >= 0 && static_cast<std::size_t>(node) < live_attempts_.size()) {
    ++live_attempts_[static_cast<std::size_t>(node)][static_cast<std::size_t>(kind)];
  }
  ++pool_running_[stage.pool.index()];
}

void SchedulerBase::note_attempt_ended(NodeId node, ResourceKind kind,
                                       const StageState& stage) {
  if (node >= 0 && static_cast<std::size_t>(node) < live_attempts_.size()) {
    --live_attempts_[static_cast<std::size_t>(node)][static_cast<std::size_t>(kind)];
  }
  --pool_running_[stage.pool.index()];
}

const std::set<NodeId>* SchedulerBase::nodes_caching(const std::string& key) const {
  auto it = cache_locations_.find(key);
  return it == cache_locations_.end() ? nullptr : &it->second;
}

void SchedulerBase::on_cache_change(NodeId node, const std::string& key, bool present) {
  if (present) {
    cache_locations_[key].insert(node);
  } else {
    auto it = cache_locations_.find(key);
    if (it != cache_locations_.end()) {
      it->second.erase(node);
      if (it->second.empty()) cache_locations_.erase(it);
    }
  }
  cache_block_changed(node, key, present);
}

}  // namespace rupam
