// Executor: the per-node JVM that runs tasks (Spark worker side).
//
// Responsibilities:
//  * Task slots (default Spark admits one task per core; RUPAM bypasses
//    slots and admits by measured resources — the scheduler decides, the
//    executor just reports).
//  * Unified memory: execution reservations + LRU block cache share the
//    heap; execution pressure evicts cached blocks (Spark's unified memory
//    manager). Exceeding the heap OOM-kills the largest task after a GC
//    thrash window; blowing far past it kills the whole executor (the
//    paper's "catastrophic failure of the Spark worker").
//  * The task phase state machine: input read → shuffle read → compute
//    (+GC) → cache output → shuffle write → result send, each phase a
//    claim on the node's fair-share resources.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/memory_pool.hpp"
#include "cluster/node.hpp"
#include "exec/block_cache.hpp"
#include "exec/gc_model.hpp"
#include "obs/spans.hpp"
#include "simcore/inline_function.hpp"
#include "tasks/task.hpp"
#include "tasks/task_metrics.hpp"

namespace rupam {

class Executor;

struct ExecutorConfig {
  Bytes heap = 14.0 * kGiB;
  /// Fraction of heap usable by the block cache (storage region).
  double storage_fraction = 0.4;
  /// Concurrent task slots (Spark: node cores).
  int task_slots = 8;
  GcModelParams gc;
  /// Heap-overrun factor at which the OS kills the JVM.
  double jvm_kill_factor = 1.25;
  /// GC-thrash window between detecting heap pressure and resolving it.
  SimTime oom_grace = 2.0;
  /// Worker restart time after an executor loss.
  SimTime restart_delay = 20.0;
  /// Effective memory bandwidth for reading cached blocks.
  Bytes memory_read_bw = 8.0 * kGiB;
};

struct LaunchOptions {
  bool use_gpu = false;
  Locality locality = Locality::kAny;
  SimTime submit_time = 0.0;
  AttemptId attempt = 0;
};

/// One task attempt in flight. Owned by the executor while running.
class TaskExecution : public std::enable_shared_from_this<TaskExecution> {
 public:
  using FinishFn = InlineFunction<void(const TaskMetrics&)>;
  using FailFn = InlineFunction<void(const TaskSpec&, AttemptId, const std::string& reason)>;

  TaskExecution(Executor& executor, TaskSpec spec, LaunchOptions opts, FinishFn on_finish,
                FailFn on_fail);

  const TaskSpec& spec() const { return spec_; }
  AttemptId attempt() const { return opts_.attempt; }
  const TaskMetrics& metrics() const { return metrics_; }
  bool running() const { return state_ == State::kRunning; }
  Bytes reserved_memory() const { return reserved_; }
  /// OOM-able (user object) part of the reservation.
  Bytes unmanaged_reserved() const { return unmanaged_; }
  /// Managed memory the arbitrator could not grant; spilled to disk.
  Bytes spill_bytes() const { return spill_bytes_; }
  bool uses_gpu() const { return gpu_held_; }
  SimTime launch_time() const { return metrics_.launch_time; }

  /// Abort this attempt. If `notify` is true the failure callback fires
  /// (OOM, executor loss); speculation kills pass false (losing copies are
  /// discarded silently, as in Spark).
  void kill(const std::string& reason, bool notify);

 private:
  friend class Executor;
  enum class State { kRunning, kFinished, kKilled };

  /// Phase-span recording (no-ops while the executor has no SpanTrace).
  /// obs_begin/obs_end bracket the common sequential phases; obs_span
  /// emits an arbitrary interval (GC tails, spill shares, queued time).
  void obs_span(TaskPhase phase, SimTime start, SimTime end, double arg,
                bool truncated = false);
  void obs_begin(TaskPhase phase);
  void obs_end(double arg);

  void start();
  void start_input_read();
  void start_shuffle_disk_read();
  void start_shuffle_net_read();
  void start_compute();
  void finish_compute(SimTime started);
  void start_shuffle_write();
  void start_output_send();
  void complete();
  void clear_claim();

  Executor& executor_;
  TaskSpec spec_;
  LaunchOptions opts_;
  FinishFn on_finish_;
  FailFn on_fail_;
  TaskMetrics metrics_;
  State state_ = State::kRunning;

  Bytes reserved_ = 0.0;
  Bytes unmanaged_ = 0.0;
  Bytes spill_bytes_ = 0.0;
  bool gpu_held_ = false;
  bool input_cache_miss_ = false;

  // At most one outstanding resource claim or timer at a time.
  FairShareResource* claim_resource_ = nullptr;
  FairShareResource::ClaimId claim_id_ = 0;
  EventHandle timer_;

  // Current phase for span recording, so kill() can close a truncated
  // span. Only meaningful while the executor has a SpanTrace attached.
  TaskPhase obs_phase_ = TaskPhase::kQueued;
  SimTime obs_phase_start_ = 0.0;
  bool obs_in_phase_ = false;
};

class Executor {
 public:
  using LostFn = std::function<void(ExecutorId)>;
  using ReadyFn = std::function<void(ExecutorId)>;
  using UsageFn = std::function<void()>;

  /// Registers with `node` as its one executor (the node reads heap_used()).
  Executor(Simulator& sim, Node& node, ExecutorId id, ExecutorConfig config);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ExecutorId id() const { return id_; }
  Node& node() { return node_; }
  const ExecutorConfig& config() const { return config_; }

  /// Launch a task attempt. The caller (scheduler) decides admission; the
  /// executor never refuses for memory (real Spark JVMs cannot), only when
  /// it is down. Returns nullptr while restarting.
  std::shared_ptr<TaskExecution> launch(const TaskSpec& spec, LaunchOptions opts,
                                        TaskExecution::FinishFn on_finish,
                                        TaskExecution::FailFn on_fail);

  bool alive() const { return alive_; }
  int running_tasks() const { return static_cast<int>(running_.size()); }
  int free_slots() const;
  Bytes heap_used() const { return exec_memory_.used() + cache_.used(); }
  Bytes heap() const { return config_.heap; }
  double occupancy() const { return heap_used() / config_.heap; }

  BlockCache& cache() { return cache_; }
  const std::vector<std::shared_ptr<TaskExecution>>& running() const { return running_; }

  void set_lost_handler(LostFn fn) { on_lost_ = std::move(fn); }
  void set_ready_handler(ReadyFn fn) { on_ready_ = std::move(fn); }
  /// Fired after every change to heap_used() or running_tasks().
  void set_usage_handler(UsageFn fn) { on_usage_ = std::move(fn); }
  /// "Does any peer executor hold cached block K?" A local miss with a
  /// peer hit is a remote block fetch (no recompute); a cluster-wide miss
  /// means the partition was evicted and must be recomputed + re-cached.
  void set_peer_cache_probe(std::function<bool(const std::string&)> probe) {
    peer_cache_probe_ = std::move(probe);
  }
  bool peer_has_block(const std::string& key) const {
    return peer_cache_probe_ && peer_cache_probe_(key);
  }

  std::size_t oom_kills() const { return oom_kills_; }
  std::size_t executor_losses() const { return executor_losses_; }

  /// Optional task-phase span sink (not owned; may be null). While
  /// attached, every task attempt records queued/IO/compute/GC/spill
  /// spans. Pure recording — never schedules simulator events.
  void set_span_trace(SpanTrace* spans) { span_trace_ = spans; }
  SpanTrace* span_trace() const { return span_trace_; }

  /// Fault injection: hard-kill the worker (tasks fail with notify, cache
  /// invalidated). Unlike an organic JVM loss, no self-restart is
  /// scheduled — the injector revives the node with force_restart().
  void crash(const std::string& reason = "ExecutorLostFailure (node crash)");
  /// Revive a crashed worker immediately. No-op while alive.
  void force_restart();

 private:
  friend class TaskExecution;

  Simulator& sim() { return sim_; }
  void reserve_memory(Bytes amount);
  void release_memory(Bytes amount);
  void check_memory_pressure();
  void resolve_memory_pressure();
  void terminate(const std::string& reason);
  void lose_executor();
  void restart();
  void detach(TaskExecution* exec);
  void usage_changed() { if (on_usage_) on_usage_(); }

  Simulator& sim_;
  Node& node_;
  ExecutorId id_;
  ExecutorConfig config_;
  MemoryPool exec_memory_;  // execution region accounting (can overflow)
  BlockCache cache_;
  GcModel gc_;
  bool alive_ = true;
  std::vector<std::shared_ptr<TaskExecution>> running_;
  EventHandle pressure_timer_;
  LostFn on_lost_;
  ReadyFn on_ready_;
  UsageFn on_usage_;
  std::function<bool(const std::string&)> peer_cache_probe_;
  SpanTrace* span_trace_ = nullptr;
  std::size_t oom_kills_ = 0;
  std::size_t executor_losses_ = 0;
};

}  // namespace rupam
