#include "sched/rupam/rupam_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"
#include "sched/speculation.hpp"

namespace rupam {

namespace {

// Run constants (DESIGN.md §4). Free-memory level below which a heartbeat
// flags a memory straggler (with at least two tasks on the node).
constexpr Bytes kLowMemoryWatermark = 768.0 * kMiB;
// Safety margin the memory guard keeps free beyond a task's footprint.
constexpr Bytes kMemoryGuardHeadroom = 768.0 * kMiB;
// Per-resource admission limits for over-commit: the most attempts the
// dispatcher commits to one node per resource queue. SSDs sustain deep
// I/O queues; HDDs thrash, so the dispatcher stacks accordingly (this is
// where "schedule I/O tasks to SSD nodes" bites).
constexpr int kMaxDiskTasksSsd = 16;
constexpr int kMaxDiskTasksHdd = 6;
constexpr int kMaxNetTasks = 12;
// Hard per-node cap on running tasks: kMaxTasksPerCore per core plus
// kOvercommitSlack flat extra slots (lets a core-saturated node still take
// a few mismatched-resource tasks, e.g. GPU work).
constexpr double kMaxTasksPerCore = 1.0;
constexpr int kOvercommitSlack = 8;
// Node-health gates: a node whose disk (either direction) or NIC holds
// this many in-flight claims takes no further work of any kind.
constexpr std::size_t kDiskGateSsd = 48;
constexpr std::size_t kDiskGateHdd = 16;
constexpr std::size_t kNetGate = 32;

std::size_t disk_gate(const Node& node) {
  return node.spec().has_ssd ? kDiskGateSsd : kDiskGateHdd;
}

}  // namespace

RupamScheduler::RupamScheduler(SchedulerEnv env, RupamConfig config)
    : SchedulerBase(std::move(env)),
      config_(config),
      tm_(db_, config.res_factor, config.gpu_cpu_race,
          DispatcherPolicy{config.opt_executor_lock, config.memory_guard, kMemoryGuardHeadroom}) {
  for (NodeId id : cluster().node_ids()) {
    if (cluster().node(id).gpus().total() > 0) gpu_nodes_.push_back(id);
    watch_io_gates(id);
    watch_memory(id);
  }
}

RupamScheduler::~RupamScheduler() {
  for (NodeId id : cluster().node_ids()) {
    Node& node = cluster().node(id);
    for (FairShareResource* r : {&node.disk_read(), &node.disk_write(), &node.net()}) {
      r->set_release_hook(nullptr);
    }
    if (Executor* exec = executor(id)) exec->set_usage_handler(nullptr);
  }
}

void RupamScheduler::watch_io_gates(NodeId id) {
  if (!config_.overcommit) return;  // slot semantics: the gates are never read
  Node& node = cluster().node(id);
  auto watch = [this](FairShareResource& r, std::size_t gate) {
    r.set_release_hook([this, &r, gate](std::size_t before) {
      if (before >= gate && r.active() < gate) request_dispatch();
    });
  };
  watch(node.disk_read(), disk_gate(node));
  watch(node.disk_write(), disk_gate(node));
  watch(node.net(), kNetGate);
}

void RupamScheduler::watch_memory(NodeId id) {
  Executor* exec = executor(id);
  HeartbeatService* beats = env_.heartbeats;
  if (!config_.memory_straggler || beats == nullptr || exec == nullptr) return;
  memory_watched_.resize(cluster().size());
  exec->set_usage_handler([this, id, beats] {
    // Without memory pressure a beat does nothing here, so the grid need
    // not deliver it.
    bool could_act = memory_pressure(id);
    if (memory_watched_[static_cast<std::size_t>(id)] == could_act) return;
    memory_watched_[static_cast<std::size_t>(id)] = could_act;
    could_act ? beats->watch(id) : beats->unwatch(id);
  });
}

void RupamScheduler::on_heartbeat(NodeId node) {
  check_memory_straggler(node);
  SchedulerBase::on_heartbeat(node);
}

DispatcherPolicy RupamScheduler::dispatcher_policy() const {
  return DispatcherPolicy{config_.opt_executor_lock, config_.memory_guard, kMemoryGuardHeadroom};
}

void RupamScheduler::node_membership_changed(NodeId node, NodeLifecycle state) {
  if (state == NodeLifecycle::kLive) {
    // Joined (or finished booting): index its devices. Keep gpu_nodes_
    // sorted so iteration order matches the construction-time scan.
    if (cluster().node(node).gpus().total() > 0 &&
        !std::binary_search(gpu_nodes_.begin(), gpu_nodes_.end(), node)) {
      gpu_nodes_.insert(std::upper_bound(gpu_nodes_.begin(), gpu_nodes_.end(), node), node);
    }
    watch_io_gates(node);
    watch_memory(node);
  } else if (state == NodeLifecycle::kDecommissioned) {
    gpu_nodes_.erase(std::remove(gpu_nodes_.begin(), gpu_nodes_.end(), node),
                     gpu_nodes_.end());
    rm_.forget(node);
  }
}

void RupamScheduler::stage_submitted(StageState& stage) {
  auto pool = pools_.policy == PoolPolicy::kFair ? static_cast<std::uint32_t>(stage.pool.index())
                                                 : 0u;
  std::uint32_t slot = tm_.open_stage(stage.set.stage, stage.set.stage_name, pool);
  if (slot_stages_.size() <= slot) slot_stages_.resize(slot + 1);
  slot_stages_[slot] = &stage;
  for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
    TaskRef ref{slot, static_cast<std::uint32_t>(i)};
    link_local(ref, stage.tasks[i].spec, tm_.enqueue(stage.tasks[i].spec, ref));
  }
}

void RupamScheduler::stage_removed(StageState& stage) {
  slot_stages_[tm_.slot(stage.set.stage)] = nullptr;
  tm_.close_stage(stage.set.stage);
}

void RupamScheduler::task_pending_changed(StageState& stage, std::size_t index, bool pending) {
  // Keep the TM queues in lock-step with the task's state: a launched
  // task's rows park (the GPU queue still races them); a failed or
  // relocated task's rows come back at their original queue positions.
  TaskRef ref{tm_.slot(stage.set.stage), static_cast<std::uint32_t>(index)};
  if (pending) {
    link_local(ref, stage.tasks[index].spec, tm_.note_pending_again(ref));
  } else {
    tm_.note_launched(ref);
  }
}

void RupamScheduler::task_succeeded(StageState& stage, TaskState& task,
                                    const TaskMetrics& metrics) {
  tm_.note_finished(task_ref(stage, task));
  tm_.record_completion(task.spec, metrics);
  relocating_.erase(task.spec.id);
}

void RupamScheduler::task_failed(StageState& stage, TaskState& task, const std::string&) {
  relocating_.erase(task.spec.id);
  if (task.pending) {
    // Re-characterize with whatever the DB knows now and requeue.
    TaskRef ref = task_ref(stage, task);
    link_local(ref, task.spec, tm_.enqueue(task.spec, ref));
  }
}

void RupamScheduler::task_relaunchable(StageState& stage, TaskState& task) {
  TaskRef ref = task_ref(stage, task);
  link_local(ref, task.spec, tm_.enqueue(task.spec, ref));
}

void RupamScheduler::cache_block_changed(NodeId node, const std::string& key, bool present) {
  tm_.for_each_reader(key, [&](TaskRef ref) {
    if (present) {
      tm_.link_task(ref, node);
      return;
    }
    tm_.relink_task(ref);  // drops the link to `node` with the others
    link_local(ref, task_at(ref).spec, TaskManager::kAllKinds);
  });
}

RupamScheduler::TaskRef RupamScheduler::task_ref(const StageState& stage,
                                                 const TaskState& task) const {
  return TaskRef{tm_.slot(stage.set.stage), static_cast<std::uint32_t>(&task - stage.tasks.data())};
}

RupamScheduler::TaskRef RupamScheduler::ref_of(ResourceKind kind, std::uint32_t r) const {
  if ((r & QueueRowIndex::kTail) != 0) {
    return tm_.task_of(ResourceKind::kGpu, r & ~QueueRowIndex::kTail);
  }
  return tm_.task_of(kind, r);
}

void RupamScheduler::link_local(TaskRef ref, const TaskSpec& spec,
                                TaskManager::KindMask kinds) {
  if (kinds == 0) return;
  for (NodeId node : spec.preferred_nodes) tm_.link_task(ref, node, kinds);
  if (spec.input_cache_key.empty()) return;
  if (const std::set<NodeId>* nodes = nodes_caching(spec.input_cache_key)) {
    for (NodeId node : *nodes) tm_.link_task(ref, node, kinds);
  }
}

void RupamScheduler::seed_monitor() {
  // Every RM row is refreshed from the live node at the start of a round,
  // so admission checks (memory guard, over-commit limits) never race a
  // 1-second-stale heartbeat view; nothing reads a row between rounds.
  // Ids are dense 0..size()-1, so an index walk replaces node_ids()'s
  // freshly-built vector on this per-round path.
  std::size_t n = cluster().size();
  for (std::size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (!cluster().member(id)) continue;  // decommissioned: no RM row
    rm_.record(cluster().node(id).metrics());
  }
}

bool RupamScheduler::node_available(const NodeMetrics& metrics, ResourceKind kind) const {
  if (!node_usable(metrics.node)) return false;
  Executor* exec = executor(metrics.node);
  if (exec == nullptr || !exec->alive()) return false;
  if (!config_.overcommit) return exec->free_slots() > 0;  // slot semantics (ablation)
  Node& node = cluster().node(metrics.node);
  double cap = kMaxTasksPerCore * node.spec().cores + kOvercommitSlack;
  if (exec->running_tasks() >= static_cast<int>(cap)) return false;
  // Node-health gates from real-time utilization (the RM metrics): a node
  // whose disk or NIC queue is already deep takes no further work of any
  // kind — HDDs lose aggregate throughput under deep queues, so piling on
  // is strictly counterproductive. This is the "avoid resource
  // contention" behaviour of §III-B applied at admission time.
  // These counts move at phase transitions, not with slots, so
  // watch_io_gates asks for a round when one falls below its gate.
  auto disk_active = std::max(node.disk_read().active(), node.disk_write().active());
  if (disk_active >= disk_gate(node)) return false;
  if (node.net().active() >= kNetGate) return false;
  // Admission counts what the dispatcher has *committed* per resource
  // queue, not instantaneous phase occupancy: a CPU-bound task in its
  // shuffle-read phase still owns its future CPU slot. Over-commit comes
  // from admitting across queues — e.g. a core-saturated node still takes
  // disk-, net-, memory- or GPU-bound work (paper §III-C2).
  int committed = live_attempts(metrics.node, kind);
  switch (kind) {
    case ResourceKind::kCpu:
      return committed < node.spec().cores;
    case ResourceKind::kMemory:
      return metrics.free_memory > 512.0 * kMiB &&
             committed < std::max(2, node.spec().cores / 4);
    case ResourceKind::kDisk:
      return committed < (node.spec().has_ssd ? kMaxDiskTasksSsd : kMaxDiskTasksHdd);
    case ResourceKind::kNetwork:
      return committed < kMaxNetTasks;
    case ResourceKind::kGpu:
      return metrics.gpus_idle > 0;
  }
  return false;
}

bool RupamScheduler::any_idle_gpu() const {
  for (NodeId id : gpu_nodes_) {
    if (cluster().node(id).gpus().idle() > 0) return true;
  }
  return false;
}

bool RupamScheduler::queue_nonempty(ResourceKind kind) const {
  if (tm_.pending_rows(kind) > 0) return true;
  if (!config_.gpu_cpu_race) return false;
  if (kind == ResourceKind::kGpu) return tm_.running_rows(kind) > 0;
  return kind == ResourceKind::kCpu && tm_.pending_rows(ResourceKind::kGpu) > 0 &&
         !any_idle_gpu();
}

QueueRowIndex* RupamScheduler::tail_of(ResourceKind kind) {
  // The CPU side of the dual-run race (§III-C3, BLAS example): with no
  // device idle anywhere, the CPU queue also offers pending GPU tasks.
  bool gpu_rows = kind == ResourceKind::kCpu && config_.gpu_cpu_race && !any_idle_gpu();
  return gpu_rows ? &tm_.queue(ResourceKind::kGpu) : nullptr;
}

bool RupamScheduler::row_live(ResourceKind kind, std::uint32_t r) const {
  const TaskState& task = task_at(ref_of(kind, r));
  if (task.finished) return false;
  if (launchable(task)) return true;
  // Task is racing on a CPU; a device may have opened up — the GPU copy.
  return kind == ResourceKind::kGpu && config_.gpu_cpu_race && !task.live.empty() &&
         !task.has_gpu_attempt();
}

bool RupamScheduler::any_rows(ResourceKind kind) {
  auto live = [&](std::uint32_t r) { return row_live(kind, r); };
  std::size_t examined = 0;
  QueueRowIndex* tail = tail_of(kind);
  bool found = tm_.queue(kind).any_live(live, examined, tail);
  note_task_checks(examined);
  if (row_oracle_) {
    build_oracle_snapshot(kind, tail != nullptr);
    std::size_t ignored = 0;
    bool expected = oracle_index_.any_live(
        [&](std::uint32_t o) {
          return row_live(kind, static_cast<std::uint32_t>(oracle_index_.row(o).handle));
        },
        ignored);
    ++row_oracle_checks_;
    if (expected != found) ++row_oracle_mismatches_;
  }
  return found;
}

RupamScheduler::Pick RupamScheduler::pick_from_rows(ResourceKind kind, NodeId node) {
  Bytes free_mem = cluster().node(node).free_memory();
  bool node_has_idle_gpu = cluster().node(node).gpus().idle() > 0;
  auto live = [&](std::uint32_t r) { return row_live(kind, r); };
  QueueRowIndex* tail = tail_of(kind);
  note_task_checks(tm_.queue(kind).candidates(node, free_mem, node_has_idle_gpu, live,
                                              candidates_scratch_, tail));
  Pick pick = select(kind, node, candidates_scratch_, /*fresh=*/false);
  if (row_oracle_) {
    build_oracle_snapshot(kind, tail != nullptr);
    oracle_index_.candidates(
        node, free_mem, node_has_idle_gpu,
        [&](std::uint32_t o) {
          return row_live(kind, static_cast<std::uint32_t>(oracle_index_.row(o).handle));
        },
        oracle_scratch_);
    // Snapshot rows ascend in queue order, and so do the rows they stand for.
    for (std::uint32_t& o : oracle_scratch_) {
      o = static_cast<std::uint32_t>(oracle_index_.row(o).handle);
    }
    Pick expected = select(kind, node, oracle_scratch_, /*fresh=*/true);
    ++row_oracle_checks_;
    if (expected.task != pick.task || expected.gpu_race_copy != pick.gpu_race_copy) {
      ++row_oracle_mismatches_;
    }
  }
  return pick;
}

RupamScheduler::Pick RupamScheduler::select(ResourceKind kind, NodeId node,
                                            const std::vector<std::uint32_t>& rows,
                                            bool fresh) {
  Bytes free_mem = cluster().node(node).free_memory();
  bool node_has_idle_gpu = cluster().node(node).gpus().idle() > 0;
  std::vector<DispatchTaskView>& views = views_scratch_;
  views.clear();
  for (std::uint32_t r : rows) {
    TaskRef ref = ref_of(kind, r);
    const TaskSpec& spec = task_at(ref).spec;
    DispatchTaskView v;
    v.index = r;
    v.peak_memory = spec.total_memory();
    v.locality = locality_for(spec, node);
    const TaskCharRecord* rec =
        fresh ? db_.lookup(db_.find_stage(spec.stage_name), spec.partition) : tm_.record(ref);
    if (rec != nullptr) {
      // The best-node lock is meaningless for a GPU task when the node's
      // devices are all busy — its best runtime came from the GPU.
      if (!rec->gpu || node_has_idle_gpu) {
        v.opt_executor = rec->opt_executor;
        v.history_size = rec->history_resources.size();
      }
      v.expected_cost = rec->compute_time + rec->shuffle_read + rec->shuffle_write;
    }
    views.push_back(v);
  }
  DispatcherPolicy policy = dispatcher_policy();
  std::optional<std::size_t> chosen;
  if (pools_.policy == PoolPolicy::kFair) {
    for (std::size_t p : by_pool_used_) by_pool_[p].clear();
    by_pool_used_.clear();
    for (const DispatchTaskView& v : views) {
      std::size_t p =
          pool_of(stage_at(ref_of(kind, static_cast<std::uint32_t>(v.index)))).index();
      if (by_pool_.size() <= p) by_pool_.resize(p + 1);  // first sight of a pool
      if (by_pool_[p].empty()) by_pool_used_.push_back(p);
      by_pool_[p].push_back(v);
    }
  }
  if (by_pool_used_.size() > 1) {
    // FAIR: Algorithm 2 runs within one pool at a time, pools tried in
    // fair-share order, so the neediest pool has first claim on the node.
    for (PoolId pool : fair_pool_order()) {
      std::size_t p = pool.index();
      if (p >= by_pool_.size() || by_pool_[p].empty()) continue;
      chosen = algorithm2_select(by_pool_[p], node, free_mem, policy);
      if (chosen) break;
    }
  } else {
    chosen = algorithm2_select(views, node, free_mem, policy);
  }
  if (!chosen) return {};
  TaskRef ref = ref_of(kind, static_cast<std::uint32_t>(*chosen));
  TaskState& task = task_at(ref);
  return Pick{&stage_at(ref), &task, /*gpu_race_copy=*/!launchable(task)};
}

void RupamScheduler::build_oracle_snapshot(ResourceKind kind, bool gpu_tail) {
  // The queues as they were before rows were kept across rounds: a
  // pending task's rows, and under racing every GPU-queue row of an
  // unfinished task (the CPU queue's GPU tail held pending ones only).
  oracle_index_.clear(dispatcher_policy());
  bool fair = pools_.policy == PoolPolicy::kFair;
  auto add = [&](ResourceKind queue, std::uint32_t tag) {
    const QueueRowIndex& rows = tm_.queue(queue);
    for (std::uint32_t r = 0; r < rows.size(); ++r) {
      if (rows.gone(r)) continue;
      TaskRef ref = tm_.task_of(queue, r);
      const StageState& stage = stage_at(ref);
      const TaskState& task = stage.tasks[ref.index];
      bool racing = queue == ResourceKind::kGpu && config_.gpu_cpu_race && tag == 0;
      if (task.finished || !(task.pending || racing)) continue;
      const TaskSpec& spec = task.spec;
      const TaskCharRecord* rec = db_.lookup(db_.find_stage(spec.stage_name), spec.partition);
      std::uint32_t o = oracle_index_.add(QueueRowIndex::Row{
          fair ? static_cast<std::uint32_t>(stage.pool.index()) : 0u, spec.total_memory(),
          rec != nullptr ? rec->opt_executor : kInvalidNode, rec != nullptr && rec->gpu, r | tag});
      for (NodeId node : spec.preferred_nodes) oracle_index_.link(node, o);
      if (spec.input_cache_key.empty()) continue;
      if (const std::set<NodeId>* nodes = nodes_caching(spec.input_cache_key)) {
        for (NodeId node : *nodes) oracle_index_.link(node, o);
      }
    }
  };
  add(kind, 0);
  if (gpu_tail) add(ResourceKind::kGpu, QueueRowIndex::kTail);
}

const std::vector<RupamScheduler::SpecCandidate>& RupamScheduler::collect_speculative(
    ResourceKind kind) {
  bool new_round = spec_round_ != dispatch_rounds();
  if (new_round) {
    // The round's one walk. Inside a round no task becomes overdue (the
    // clock stands still); a launch can only make an entry stale.
    spec_round_ = dispatch_rounds();
    walk_scratch_.clear();
    walk_stragglers(walk_scratch_);
    spec_walk_.clear();
    for (const Overdue& o : walk_scratch_) {
      Straggler s;
      static_cast<Overdue&>(s) = o;
      s.owner = &stages_.at(o.stage);
      // Match the straggler's bottleneck to the resource round, so the copy
      // runs where that resource is most capable.
      const TaskSpec& spec = s.owner->tasks[o.index].spec;
      if (const TaskCharRecord* rec = db_.lookup(spec.stage_name, spec.partition)) {
        s.kind = tm_.bottleneck(*rec);
      }
      spec_walk_.push_back(s);
    }
  }
  if (new_round || spec_copies_ != copy_launches_) {
    // Drop what this round's copies made stale and sort the rest: the
    // same std::sort input a walk now would build.
    spec_copies_ = copy_launches_;
    spec_live_.clear();
    for (std::size_t i = 0; i < spec_walk_.size();) {
      Straggler& first = spec_walk_[i];
      bool any = false;
      for (; i < spec_walk_.size() && spec_walk_[i].owner == first.owner; ++i) {
        if (straggler_candidate(first.owner->tasks[spec_walk_[i].index])) {
          spec_live_.push_back(spec_walk_[i]);
          any = true;
        }
      }
      if (!any && !first.rewalked) {
        // Every overdue task of the stage got a copy. A walk now would
        // reset the stage's lone_launch_bound from the tasks left, so
        // re-read that one stage: the next straggler crossing stays exact.
        first.rewalked = true;
        walk_scratch_.clear();
        walk_stragglers(walk_scratch_, first.owner);
      }
    }
    sort_overdue(spec_live_);
  }
  spec_scratch_.clear();
  for (const Straggler& s : spec_live_) {
    if (s.kind == kind) spec_scratch_.push_back(SpecCandidate{s.owner, &s.owner->tasks[s.index]});
  }
  return spec_scratch_;
}

RupamScheduler::Pick RupamScheduler::pick_speculative(
    const std::vector<SpecCandidate>& candidates, NodeId node) {
  if (candidates.empty()) return {};
  Bytes free_mem = cluster().node(node).free_memory();
  for (const SpecCandidate& c : candidates) {
    if (c.task->has_attempt_on(node)) continue;
    if (config_.memory_guard &&
        c.task->spec.total_memory() + kMemoryGuardHeadroom > free_mem) {
      continue;
    }
    return Pick{c.stage, c.task, /*gpu_race_copy=*/true};
  }
  return {};
}

bool RupamScheduler::dispatch_possible() const {
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (tm_.pending_rows(static_cast<ResourceKind>(k)) > 0) return true;
  }
  // A running task's GPU row can still yield a race copy when a device
  // frees up.
  if (config_.gpu_cpu_race && tm_.running_rows(ResourceKind::kGpu) > 0) return true;
  if (speculation_.enabled) {
    // Mirror of straggler_threshold()'s early-out: a stage can yield
    // speculatables only once `quantile` of its tasks have finished.
    for (const auto& [id, stage] : stages_) {
      if (!stage.finished_runtimes.empty() &&
          static_cast<double>(stage.finished_runtimes.size()) >=
              SpeculationRule{}.quantile * static_cast<double>(stage.tasks.size())) {
        return true;
      }
    }
  }
  return false;
}

bool RupamScheduler::node_offerable(NodeId node, ResourceKind kind) const {
  // A row can vanish mid-round (a decommission forgets it): skip it. A node
  // past its heartbeat deadline takes no work even before the next
  // liveness sweep declares it dead.
  const NodeMetrics* metrics = rm_.latest(node);
  return metrics != nullptr && !heartbeat_overdue(node) && node_available(*metrics, kind);
}

const std::vector<NodeId>& RupamScheduler::round_order(ResourceKind kind) {
  std::vector<NodeId>& order = round_order_[static_cast<std::size_t>(kind)];
  if (order.empty()) {
    OverheadProfiler::Scope profile(profiler(), ProfileSection::kHeapMaintenance);
    // Grow every kind's buffer together, so a kind first sorted late in a
    // run still finds its capacity warm (scan rounds stay allocation-free).
    for (std::vector<NodeId>& other : round_order_) other.reserve(rm_.tracked_nodes());
    rm_.order_into(kind, rank_keys_scratch_, order);
  }
  return order;
}

void RupamScheduler::try_dispatch() {
  if (stages_.empty() || !dispatch_possible()) return;
  {
    OverheadProfiler::Scope profile(profiler(), ProfileSection::kHeapMaintenance);
    seed_monitor();
  }
  // The snapshot is frozen for the rest of the round, so each kind's
  // priority queue is sorted at most once (the paper's one queue per
  // resource type per round); launches only change admission, which the
  // walk checks node by node. Admission only tightens within a round (a
  // launch adds load to the node it lands on), so a node the walk finds
  // closed at the head of the queue stays closed and is skipped for good.
  for (std::vector<NodeId>& order : round_order_) order.clear();
  order_head_.fill(0);
  int misses = 0;
  while (misses < kNumResourceKinds) {
    ResourceKind kind = round_robin_.next();
    const std::vector<SpecCandidate>* speculative = nullptr;
    auto speculatable = [&]() -> const std::vector<SpecCandidate>& {
      if (speculative == nullptr) speculative = &collect_speculative(kind);
      return *speculative;
    };
    bool launched = false;
    if (queue_nonempty(kind) || !speculatable().empty()) {
      const std::vector<NodeId>& order = round_order(kind);
      // Walk the priority queue until a node accepts a task; launch at
      // most one task per kind-visit so no resource type is starved.
      bool rows_checked = false;  // at the first offerable node
      bool rows = false;
      std::size_t& head = order_head_[static_cast<std::size_t>(kind)];
      std::size_t offered = 0;
      for (std::size_t i = head; i < order.size(); ++i) {
        NodeId node = order[i];
        if (!node_offerable(node, kind)) {
          if (i == head) ++head;
          continue;
        }
        note_node_visit();
        std::size_t rank = offered++;  // position among the admitted nodes
        if (!rows_checked) {
          rows_checked = true;
          rows = any_rows(kind);
          if (!rows && speculatable().empty()) break;
        }
        Pick pick = rows ? pick_from_rows(kind, node) : Pick{};
        bool speculative_copy = false;
        if (pick.task == nullptr) {
          pick = pick_speculative(speculatable(), node);
          speculative_copy = pick.task != nullptr;
        }
        if (pick.task == nullptr) continue;
        bool use_gpu =
            pick.task->spec.gpu_accelerable && cluster().node(node).gpus().idle() > 0;
        bool as_copy = pick.gpu_race_copy;
        Explain e;
        if (audit_enabled()) {
          // Bottleneck tag: the characterization that routed this task to a
          // per-resource queue (Algorithm 1); for never-seen tasks the queue
          // itself is the tag.
          ResourceKind tag = kind;
          if (const TaskCharRecord* rec =
                  db_.lookup(pick.task->spec.stage_name, pick.task->spec.partition)) {
            tag = tm_.bottleneck(*rec);
          }
          e.reason = speculative_copy ? "rupam_speculative"
                     : as_copy        ? "rupam_gpu_race"
                                      : "rupam_heap_match";
          e.detail = "tag=" + std::string(to_string(tag)) +
                     " queue=" + std::string(to_string(kind)) +
                     " rank=" + std::to_string(rank);
          // The candidates are the round's order filtered by admission
          // now: nothing has changed since this kind-visit began.
          for (NodeId candidate : order) {
            if (node_offerable(candidate, kind)) e.candidate_nodes.push_back(candidate);
          }
          e.candidates = static_cast<int>(e.candidate_nodes.size());
        }
        if (!launch_task(*pick.stage, *pick.task, node, use_gpu, as_copy, kind,
                         audit_enabled() ? &e : nullptr)) {
          continue;
        }
        if (as_copy) {
          ++copy_launches_;
          if (speculative_copy) {
            note_speculative_launch(pick.task->spec.id);
          } else {
            ++gpu_races_;
          }
        }
        launched = true;
        break;
      }
    }
    misses = launched ? 0 : misses + 1;
  }
}

bool RupamScheduler::memory_pressure(NodeId node) const {
  Executor* exec = executor(node);
  return config_.memory_straggler && exec != nullptr && exec->running_tasks() >= 2 &&
         cluster().node(node).free_memory() < kLowMemoryWatermark;
}

void RupamScheduler::check_memory_straggler(NodeId node) {
  if (!memory_pressure(node)) return;
  // Rate-limit per node: relocation is a remedial action, not a policy —
  // killing the top consumer every heartbeat would thrash.
  auto it = last_relocation_.find(node);
  if (it != last_relocation_.end() && sim().now() - it->second < 10.0) return;

  // Find the largest memory consumer on this node across active stages.
  StageState* victim_stage = nullptr;
  TaskState* victim = nullptr;
  Bytes victim_mem = 0.0;
  for (auto& [id, stage] : stages_) {
    for (auto& task : stage.tasks) {
      if (task.finished || relocating_.count(task.spec.id) > 0) continue;
      for (const auto& attempt : task.live) {
        if (attempt.node != node) continue;
        if (attempt.exec->reserved_memory() > victim_mem) {
          victim_mem = attempt.exec->reserved_memory();
          victim_stage = &stage;
          victim = &task;
        }
      }
    }
  }
  if (victim == nullptr) return;
  RUPAM_INFO(sim().now(), "RUPAM: memory straggler — relocating task ", victim->spec.id,
             " off node ", node);
  relocating_.insert(victim->spec.id);
  last_relocation_[node] = sim().now();
  relocate_task(*victim_stage, *victim, "memory straggler");
}

}  // namespace rupam
