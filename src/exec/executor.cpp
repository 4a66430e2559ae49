#include "exec/executor.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rupam {

// ---------------------------------------------------------------- Executor

Executor::Executor(Simulator& sim, Node& node, ExecutorId id, ExecutorConfig config)
    : sim_(sim),
      node_(node),
      id_(id),
      config_(config),
      exec_memory_(config.heap),
      cache_(config.heap * config.storage_fraction),
      gc_(config.gc) {
  node_.attach_executor(this);
}

Executor::~Executor() { node_.attach_executor(nullptr); }

int Executor::free_slots() const {
  if (!alive_) return 0;
  return std::max(0, config_.task_slots - running_tasks());
}

std::shared_ptr<TaskExecution> Executor::launch(const TaskSpec& spec, LaunchOptions opts,
                                                TaskExecution::FinishFn on_finish,
                                                TaskExecution::FailFn on_fail) {
  if (!alive_) return nullptr;
  auto exec = std::make_shared<TaskExecution>(*this, spec, opts, std::move(on_finish),
                                              std::move(on_fail));
  running_.push_back(exec);
  exec->start();  // reserves memory: usage_changed() sees the new attempt
  return exec;
}

void Executor::reserve_memory(Bytes amount) {
  // JVMs do not admission-check: allocation proceeds and pressure is
  // resolved afterwards (OOM or process death), as in the paper's §III-C3.
  exec_memory_.force_reserve(amount);
  usage_changed();
  check_memory_pressure();
}

// Always followed by detach(), which reports the change.
void Executor::release_memory(Bytes amount) { exec_memory_.release(amount); }

void Executor::check_memory_pressure() {
  if (heap_used() <= config_.heap) return;
  if (pressure_timer_.pending()) return;
  // The JVM thrashes in GC for a grace window before anything dies; more
  // tasks can pile on meanwhile (this is how default Spark occasionally
  // loses whole workers on low-memory nodes).
  pressure_timer_ = sim_.schedule_after(config_.oom_grace, [this] { resolve_memory_pressure(); });
}

void Executor::resolve_memory_pressure() {
  if (!alive_) return;
  if (heap_used() > config_.heap * config_.jvm_kill_factor) {
    lose_executor();
    return;
  }
  // OOM-kill unmanaged-memory tasks until the heap fits. Managed-only
  // tasks are never victims — their memory was granted within the heap
  // (shortfalls spilled), so they cannot be what overflows. Victims are
  // chosen newest-first: the allocation that trips the exhausted heap is
  // the one that throws, and earlier residents survive — which also lets
  // a retried heavy task eventually land on a quiet executor and finish
  // instead of being executed last forever.
  while (heap_used() > config_.heap) {
    TaskExecution* victim = nullptr;
    for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
      if ((*it)->running() && (*it)->unmanaged_reserved() > 0.0) {
        victim = it->get();
        break;
      }
    }
    if (victim == nullptr) break;
    ++oom_kills_;
    RUPAM_INFO(sim_.now(), "executor ", id_, ": OOM-killing task ", victim->spec().id);
    victim->kill("java.lang.OutOfMemoryError", /*notify=*/true);
  }
}

void Executor::terminate(const std::string& reason) {
  ++executor_losses_;
  alive_ = false;
  // Kill everything; iterate over a copy since kill() detaches.
  auto snapshot = running_;
  for (const auto& exec : snapshot) {
    if (exec->running()) exec->kill(reason, /*notify=*/true);
  }
  cache_.clear();
  usage_changed();
  pressure_timer_.cancel();
  if (on_lost_) on_lost_(id_);
}

void Executor::lose_executor() {
  RUPAM_WARN(sim_.now(), "executor ", id_, " lost (JVM killed by OS), restarting in ",
             config_.restart_delay, "s");
  terminate("ExecutorLostFailure");
  sim_.schedule_after(config_.restart_delay, [this] { restart(); });
}

void Executor::crash(const std::string& reason) {
  if (!alive_) return;  // already down (organic loss or overlapping fault)
  RUPAM_WARN(sim_.now(), "executor ", id_, " crashed (injected fault)");
  terminate(reason);
}

void Executor::restart() {
  // An organically scheduled restart must not revive a worker whose node
  // is crash-injected offline; the injector's recover step does that.
  if (alive_ || !node_.online()) return;
  alive_ = true;
  if (on_ready_) on_ready_(id_);
}

void Executor::force_restart() {
  if (alive_) return;
  alive_ = true;
  if (on_ready_) on_ready_(id_);
}

void Executor::detach(TaskExecution* exec) {
  auto it = std::find_if(running_.begin(), running_.end(),
                         [exec](const auto& p) { return p.get() == exec; });
  if (it != running_.end()) running_.erase(it);
  usage_changed();
}

// ----------------------------------------------------------- TaskExecution

TaskExecution::TaskExecution(Executor& executor, TaskSpec spec, LaunchOptions opts,
                             FinishFn on_finish, FailFn on_fail)
    : executor_(executor),
      spec_(std::move(spec)),
      opts_(opts),
      on_finish_(std::move(on_finish)),
      on_fail_(std::move(on_fail)) {
  metrics_.task = spec_.id;
  metrics_.stage = spec_.stage;
  metrics_.stage_name = spec_.stage_name;
  metrics_.partition = spec_.partition;
  metrics_.node = executor_.node().id();
  metrics_.locality = opts_.locality;
  metrics_.submit_time = opts_.submit_time;
  metrics_.peak_memory = spec_.peak_memory;
}

void TaskExecution::obs_span(TaskPhase phase, SimTime start, SimTime end, double arg,
                             bool truncated) {
  if (executor_.span_trace_ == nullptr) return;
  PhaseSpan s;
  s.start = start;
  s.end = end;
  s.phase = phase;
  s.stage = spec_.stage;
  s.task = spec_.id;
  s.attempt = opts_.attempt;
  s.node = executor_.node().id();
  s.arg = arg;
  s.truncated = truncated;
  executor_.span_trace_->record(s);
}

void TaskExecution::obs_begin(TaskPhase phase) {
  if (executor_.span_trace_ == nullptr) return;
  obs_phase_ = phase;
  obs_phase_start_ = executor_.sim().now();
  obs_in_phase_ = true;
}

void TaskExecution::obs_end(double arg) {
  if (!obs_in_phase_) return;
  obs_in_phase_ = false;
  obs_span(obs_phase_, obs_phase_start_, executor_.sim().now(), arg);
}

void TaskExecution::start() {
  metrics_.launch_time = executor_.sim().now();
  metrics_.scheduler_delay = metrics_.launch_time - metrics_.submit_time;
  obs_span(TaskPhase::kQueued, metrics_.submit_time, metrics_.launch_time,
           metrics_.scheduler_delay);
  // Managed execution memory is arbitrated: a task gets at most what the
  // heap still holds and *spills* the shortfall to disk (Spark semantics —
  // managed memory never OOMs). Unmanaged user objects are allocated
  // unconditionally; those are the allocations that kill tasks and JVMs.
  Bytes headroom = std::max(0.0, executor_.heap() - executor_.heap_used());
  Bytes request = spec_.peak_memory;
  if (spec_.elastic_memory_fraction > 0.0) {
    // Opportunistic growth is bounded: a hash table will not expand past a
    // small multiple of its working set however large the heap is.
    Bytes grab = spec_.elastic_memory_fraction * std::max(0.0, headroom - request);
    request += std::min(grab, 2.0 * spec_.peak_memory);
  }
  Bytes granted = std::min(request, headroom);
  spill_bytes_ = request - granted;
  unmanaged_ = spec_.unmanaged_memory;
  reserved_ = granted + unmanaged_;
  metrics_.peak_memory = request + unmanaged_;
  executor_.reserve_memory(reserved_);
  if (opts_.use_gpu && spec_.gpu_accelerable) {
    // Fall back to the CPU when every device is busy — default Spark does
    // not know about GPUs, so its GPU tasks race for devices via the BLAS
    // library and the losers take the slow CPU path.
    gpu_held_ = executor_.node().gpus().try_acquire();
  }
  metrics_.used_gpu = gpu_held_;
  start_input_read();
}

void TaskExecution::clear_claim() {
  claim_resource_ = nullptr;
  claim_id_ = 0;
}

void TaskExecution::start_input_read() {
  if (state_ != State::kRunning) return;
  if (spec_.input_bytes <= 0.0) {
    start_shuffle_disk_read();
    return;
  }
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kInputRead);
  auto self = shared_from_this();
  auto done = [this, self, started] {
    clear_claim();
    metrics_.input_read_time = executor_.sim().now() - started;
    obs_end(spec_.input_bytes);
    start_shuffle_disk_read();
  };
  NodeId here = executor_.node().id();
  bool cached_here =
      !spec_.input_cache_key.empty() && executor_.cache().touch(spec_.input_cache_key);
  bool cached_on_peer = !spec_.input_cache_key.empty() && !cached_here &&
                        executor_.peer_has_block(spec_.input_cache_key);
  // Recompute + re-cache only when the block is gone cluster-wide; a peer
  // hit is just a remote block-manager fetch.
  input_cache_miss_ = !spec_.input_cache_key.empty() && !cached_here && !cached_on_peer;
  if (cached_here) {
    // PROCESS_LOCAL memory read.
    timer_ = executor_.sim().schedule_after(
        spec_.input_bytes / executor_.config().memory_read_bw, done);
  } else if (spec_.prefers(here)) {
    claim_resource_ = &executor_.node().disk_read();
    claim_id_ = claim_resource_->start(spec_.input_bytes, 1.0, done);
  } else {
    // Remote block (HDFS replica elsewhere, or a peer executor's cached
    // partition): fetched over this node's NIC.
    claim_resource_ = &executor_.node().net();
    claim_id_ = claim_resource_->start(spec_.input_bytes, 1.0, done);
  }
}

void TaskExecution::start_shuffle_disk_read() {
  if (state_ != State::kRunning) return;
  Bytes local = spec_.shuffle_read_bytes * (1.0 - spec_.shuffle_remote_fraction);
  if (local <= 0.0) {
    start_shuffle_net_read();
    return;
  }
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kShuffleDiskRead);
  auto self = shared_from_this();
  claim_resource_ = &executor_.node().disk_read();
  claim_id_ = claim_resource_->start(local, 1.0, [this, self, started, local] {
    clear_claim();
    SimTime dt = executor_.sim().now() - started;
    metrics_.shuffle_read_time += dt;
    metrics_.shuffle_disk_time += dt;
    obs_end(local);
    start_shuffle_net_read();
  });
}

void TaskExecution::start_shuffle_net_read() {
  if (state_ != State::kRunning) return;
  Bytes remote = spec_.shuffle_read_bytes * spec_.shuffle_remote_fraction;
  if (remote <= 0.0) {
    start_compute();
    return;
  }
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kShuffleNetRead);
  auto self = shared_from_this();
  claim_resource_ = &executor_.node().net();
  claim_id_ = claim_resource_->start(remote, 1.0, [this, self, started, remote] {
    clear_claim();
    SimTime dt = executor_.sim().now() - started;
    metrics_.shuffle_read_time += dt;
    metrics_.shuffle_net_time += dt;
    obs_end(remote);
    start_compute();
  });
}

void TaskExecution::start_compute() {
  if (state_ != State::kRunning) return;
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kCompute);
  auto self = shared_from_this();
  auto done = [this, self, started] {
    clear_claim();
    finish_compute(started);
  };
  // GC work scales with this task's allocation churn and the executor's
  // current heap pressure (see GcModel).
  Bytes churn = spec_.input_bytes + spec_.shuffle_read_bytes + spec_.shuffle_write_bytes +
                0.5 * spec_.peak_memory;
  SimTime gc_t = executor_.gc_.gc_time(churn, executor_.heap(), executor_.occupancy());
  if (gpu_held_) {
    // Dedicated device: deterministic service time; GC still happens on the
    // host while the device computes, so only the longer of the two shows.
    SimTime dev = spec_.compute / spec_.gpu_speedup;
    metrics_.gc_time += gc_t;
    timer_ = executor_.sim().schedule_after(std::max(dev, gc_t), done);
    return;
  }
  double speed = executor_.node().spec().core_speed();
  double gc_work = gc_t * speed;  // gc_t wall-seconds on this node's core
  metrics_.gc_time += gc_t;       // refined in finish_compute by actual wall share
  claim_resource_ = &executor_.node().cpu();
  claim_id_ = claim_resource_->start(spec_.compute + gc_work, speed, done);
}

void TaskExecution::finish_compute(SimTime started) {
  SimTime wall = executor_.sim().now() - started;
  // Split the measured wall time between GC and useful compute in
  // proportion to the work amounts charged in start_compute().
  SimTime gc_est = metrics_.gc_time;
  SimTime gc_wall = std::min(wall, gc_est);
  if (!gpu_held_) {
    double speed = executor_.node().spec().core_speed();
    double total_work = spec_.compute + gc_est * speed;
    if (total_work > 0.0) gc_wall = wall * (gc_est * speed / total_work);
  }
  metrics_.gc_time = gc_wall;
  metrics_.compute_time = std::max(0.0, wall - gc_wall) + metrics_.input_read_time;
  metrics_.serialization_time = spec_.serialization_fraction * metrics_.compute_time;
  if (obs_in_phase_) {
    // Compute span over the whole service interval, with the GC share as a
    // nested span at the tail (where a real JVM's stop-the-world pauses
    // cluster once the heap fills).
    obs_in_phase_ = false;
    SimTime now = executor_.sim().now();
    obs_span(TaskPhase::kCompute, started, now, std::max(0.0, wall - gc_wall));
    if (gc_wall > 0.0) obs_span(TaskPhase::kGc, now - gc_wall, now, gc_wall);
  }

  Bytes evicted = 0.0;
  if (!spec_.cache_output_key.empty() && spec_.cache_output_bytes > 0.0) {
    evicted += executor_.cache().put(spec_.cache_output_key, spec_.cache_output_bytes);
    executor_.usage_changed();
  }
  if (input_cache_miss_ && spec_.input_bytes > 0.0) {
    // Read-through re-caching (Spark recomputes an evicted persisted
    // partition and stores it again): future reads on this node become
    // PROCESS_LOCAL, but under heap pressure this is exactly the LRU
    // churn the paper blames for default Spark's GC overhead on LR.
    evicted += executor_.cache().put(spec_.input_cache_key, spec_.input_bytes);
    executor_.usage_changed();
  }
  if (evicted > 0.0) {
    executor_.check_memory_pressure();
    SimTime churn_t = executor_.gc_.gc_time(evicted, executor_.heap(), executor_.occupancy());
    if (churn_t > 0.0) {
      metrics_.gc_time += churn_t;
      obs_begin(TaskPhase::kGc);
      auto self = shared_from_this();
      timer_ = executor_.sim().schedule_after(churn_t, [this, self, churn_t] {
        obs_end(churn_t);
        start_shuffle_write();
      });
      return;
    }
  }
  start_shuffle_write();
}

void TaskExecution::start_shuffle_write() {
  if (state_ != State::kRunning) return;
  // Ungranted managed memory spills: the spilled bytes are written out and
  // merged back, charged here as extra disk-write work.
  Bytes bytes = spec_.shuffle_write_bytes + 2.0 * spill_bytes_;
  if (bytes <= 0.0) {
    start_output_send();
    return;
  }
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kShuffleWrite);
  auto self = shared_from_this();
  claim_resource_ = &executor_.node().disk_write();
  claim_id_ = claim_resource_->start(bytes, 1.0, [this, self, started, bytes] {
    clear_claim();
    SimTime dt = executor_.sim().now() - started;
    metrics_.shuffle_write_time += dt;
    metrics_.shuffle_disk_time += dt;
    obs_end(bytes);
    if (spill_bytes_ > 0.0 && executor_.span_trace_ != nullptr && bytes > 0.0) {
      // The tail share of the write attributable to spill merge I/O.
      SimTime spill_dt = dt * (2.0 * spill_bytes_ / bytes);
      obs_span(TaskPhase::kSpill, executor_.sim().now() - spill_dt, executor_.sim().now(),
               spill_bytes_);
    }
    start_output_send();
  });
}

void TaskExecution::start_output_send() {
  if (state_ != State::kRunning) return;
  if (spec_.output_bytes <= 0.0) {
    complete();
    return;
  }
  SimTime started = executor_.sim().now();
  obs_begin(TaskPhase::kOutputSend);
  auto self = shared_from_this();
  claim_resource_ = &executor_.node().net();
  claim_id_ = claim_resource_->start(spec_.output_bytes, 1.0, [this, self, started] {
    clear_claim();
    SimTime dt = executor_.sim().now() - started;
    metrics_.output_time = dt;
    metrics_.shuffle_net_time += dt;
    obs_end(spec_.output_bytes);
    complete();
  });
}

void TaskExecution::complete() {
  if (state_ != State::kRunning) return;
  state_ = State::kFinished;
  metrics_.finish_time = executor_.sim().now();
  executor_.release_memory(reserved_);
  reserved_ = 0.0;
  if (gpu_held_) {
    executor_.node().gpus().release();
    gpu_held_ = false;
  }
  auto self = shared_from_this();
  executor_.detach(this);
  if (on_finish_) on_finish_(metrics_);
}

void TaskExecution::kill(const std::string& reason, bool notify) {
  if (state_ != State::kRunning) return;
  state_ = State::kKilled;
  if (obs_in_phase_) {
    // Close the open phase as truncated so partial attempts still render.
    obs_in_phase_ = false;
    obs_span(obs_phase_, obs_phase_start_, executor_.sim().now(), 0.0, /*truncated=*/true);
  }
  if (claim_resource_ != nullptr) {
    claim_resource_->cancel(claim_id_);
    clear_claim();
  }
  timer_.cancel();
  executor_.release_memory(reserved_);
  reserved_ = 0.0;
  if (gpu_held_) {
    executor_.node().gpus().release();
    gpu_held_ = false;
  }
  metrics_.failed = true;
  metrics_.failure_reason = reason;
  metrics_.finish_time = executor_.sim().now();
  auto self = shared_from_this();
  executor_.detach(this);
  if (notify && on_fail_) on_fail_(spec_, opts_.attempt, reason);
}

}  // namespace rupam
