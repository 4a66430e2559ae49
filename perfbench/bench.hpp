// perfbench: the repo benchmark. One binary runs one named workload for a
// fixed host-time budget, checks every simulated output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as the last line of stdout. Layers are measured from outside, by timing
// and counting calls into the simulator's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "app/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
double percentile(std::vector<double> values, double pct);

// ---------------------------------------------------------------------------
// Host speed. Benchmark hosts are often shared and their speed drifts (on a
// shared 4-core VM the same run took twice as long twenty minutes later),
// so every host time is reported at reference speed: raw time x
// kProbeReferenceMs / the 10th-percentile time of a fixed probe kernel
// sampled throughout the run (between operations, never beside them).
// Single samples carry bursts of contention that the low percentile
// ignores; it follows the slow drift. The kernel is the benchmark's own mix
// of map, heap, sort and allocation work, unaffected by changes to the
// simulator, so a faster simulator still reads faster.
inline constexpr double kProbeReferenceMs = 20.0;

class SpeedProbe {
 public:
  /// Time one run of the probe kernel.
  void sample();
  /// Sample when the last sample is older than half a second.
  void maybe_sample();
  /// 10th-percentile probe time over the run, in ms.
  double speed_ms() const { return percentile(samples_, 10); }
  /// Multiply a raw host time by this to get it at reference speed.
  double factor() const { return samples_.empty() ? 1.0 : kProbeReferenceMs / speed_ms(); }

 private:
  std::vector<double> samples_;
  std::int64_t last_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Allocation counting (core.cpp): a replaced global operator new bumps a
// per-thread counter while counting is switched on (traced passes only).
// Per-thread, so concurrent sweep workers never see each other's traffic.
void set_alloc_counting(bool on);
std::uint64_t thread_allocs();

// ---------------------------------------------------------------------------
// Spans: one record per public call the benchmark makes into a layer.
struct Span {
  std::string_view name;  // static string: the call site's layer.call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same log, -1 for a root
  int run = 0;      // operation id shared by every span of one operation
};

/// One thread's span buffer. Spans nest strictly (a scope stack).
class SpanLog {
 public:
  int open(std::string_view name, int run);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log records nothing and reads no clock.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string_view name, int run = 0)
      : log_(log), index_(log ? log->open(name, run) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Per-layer counters gathered from one finished Simulation (public
// accessors plus the OverheadProfiler attached in traced passes).
struct LayerStats {
  // simcore
  std::uint64_t events = 0, scheduled = 0, cancelled = 0;
  std::uint64_t arena_allocs = 0, callback_heap_allocs = 0, peak_queue = 0;
  double loop_ns = 0.0;  // run-loop wall of profiled sims (begin→finish)
  std::uint64_t loop_allocs = 0;
  // sched
  std::uint64_t dispatch_rounds = 0, launch_rounds = 0, alloc_rounds = 0;
  std::uint64_t node_visits = 0, task_checks = 0, launches = 0, tasksets = 0;
  std::uint64_t launch_allocs = 0, scan_allocs = 0, scan_rounds = 0;
  double dispatch_ns = 0.0, heap_ns = 0.0, enqueue_ns = 0.0, heartbeat_ns = 0.0;
  std::uint64_t heartbeats = 0, heartbeat_queue_entries = 0;
  // exec
  std::uint64_t oom_kills = 0, executor_losses = 0, completed_attempts = 0;
  // cluster elastic, faults, dag
  std::uint64_t scale_ups = 0, scale_downs = 0, faults_injected = 0;
  std::uint64_t partitions_resubmitted = 0, jobs_completed = 0, recomputed_partitions = 0;
  // obs
  std::uint64_t records = 0;

  LayerStats& operator+=(const LayerStats& o);
  /// Scale every host-time field (see SpeedProbe).
  void scale_time(double factor);
};

/// Read every public counter of a finished run. `profiler` may be null
/// (untraced); `loop_ns`/`loop_allocs` are the caller's run-loop deltas.
LayerStats collect_layers(rupam::Simulation& sim, const rupam::OverheadProfiler* profiler,
                          double loop_ns, std::uint64_t loop_allocs);

/// Attach `profiler` to `sim`, counting allocations on the calling thread.
void attach_profiler(rupam::Simulation& sim, rupam::OverheadProfiler& profiler);

// ---------------------------------------------------------------------------
// One pass: a fixed list of operations derived from the seed. Workload
// code records into it; sweep workers merge into it under `mu`.
struct Pass {
  bool traced = false;
  SpeedProbe* probe = nullptr;  // sampled between operations when set
  SpanLog* spans = nullptr;  // main-thread span log (null when untraced)
  SpanLog span_log;          // what `spans` points at in traced passes
  double wall_s = 0.0;       // host time of the whole pass

  double setup_s = 0.0;  // host time building fleets, apps, Simulations
  double loop_s = 0.0;   // host time in run loops
  double sim_s = 0.0;    // simulated seconds those loops advanced
  std::vector<double> op_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  std::vector<double> makespans;  // one per simulated run
  std::vector<double> jcts;       // job completion times (see workloads.cpp)
  /// Makespans of paired runs: the i-th Spark run and the i-th RUPAM run
  /// share their inputs.
  std::vector<double> spark_makespans, rupam_makespans;

  std::string digest;  // simulated outputs, in operation order
  std::string inputs;  // fingerprint of the generated inputs

  LayerStats layers;
  std::vector<Span> worker_spans;  // spans merged from other threads
  /// Named host timings that are not spans (sweep pool facts, record share).
  double sweep_wall_s = 0.0, sweep_cell_wall_s = 0.0, sweep_workers = 0.0;
  std::size_t sweep_failed_cells = 0;
  std::vector<double> cell_ms;
  double record_on_s = 0.0, record_off_s = 0.0;
  double export_bytes = 0.0;
  double restore_s = 0.0, straight_s = 0.0;  // restore-to-end vs straight loop

  void fail(const std::string& what);
  std::mutex mu;
};

/// Times one operation: latency, attempt/failure accounting, and a root
/// span whose run id every nested span shares.
class Operation {
 public:
  Operation(Pass& pass, std::string_view name);
  ~Operation();
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  int run() const { return run_; }
  /// Mark the operation failed (counted once, message kept).
  void fail(const std::string& what);
  /// Fail unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

 private:
  Pass& pass_;
  std::int64_t start_ns_ = 0;
  int run_;
  int span_ = -1;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp, sweep.cpp, diagnose.cpp).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run_pass(Pass& pass) = 0;
  /// Extra traced-only measurements made outside the timed pass.
  virtual void after_traced_pass(Pass& pass) { (void)pass; }
  /// sim.jct_p95_s for one pass: p95 over every recorded job by default.
  virtual double jct_p95(const Pass& pass) const { return percentile(pass.jcts, 95); }

  /// Percentile reported as run_ms_tail (100 = maximum) and the op count
  /// a run must reach before it stops, so the percentile keeps >= 10
  /// samples beyond it.
  int tail_pct = 95;
  std::size_t min_ops = 1;
  /// Probe samples taken at every pass start. Workloads whose operations
  /// run on worker threads (no samples between operations) take more.
  int probes_per_pass = 2;
};

std::unique_ptr<Workload> make_hydra_paper(std::uint64_t seed, bool smoke);
std::unique_ptr<Workload> make_fleet_1000(std::uint64_t seed, bool smoke);
std::unique_ptr<Workload> make_tenant_sweep(std::uint64_t seed, bool smoke, int workers,
                                            const std::string& scratch);
std::unique_ptr<Workload> make_diagnose_replay(std::uint64_t seed, bool smoke,
                                               const std::string& scratch);

/// Run `app` on `sim` (begin→finish) inside `op`: loop and simulated time,
/// the profiler in traced passes, completion checks, per-layer counters
/// and the digest line. `observe_jobs` records job completion times
/// through the DAG job observer (runs without the analysis sink).
/// Returns the makespan; throws what the simulation throws.
double run_application(Pass& pass, Operation& op, rupam::Simulation& sim,
                       const rupam::Application& app, const std::string& label,
                       bool observe_jobs);

/// Sum of the generated per-task demands: differs whenever the seed
/// changes the generated application.
double app_fingerprint(const rupam::Application& app);

/// Largest |critical-path attribution − JCT| over the diagnosed jobs.
double tiling_residual(const rupam::RunDiagnosis& diagnosis);

/// Fail `op` when the profiled sections add up to more than the run-loop
/// wall they were measured inside (the attribution check).
void check_attribution(Operation& op, const LayerStats& layers);

/// Derive independent sub-seeds from the --seed argument.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Shortest round-trip text of a double (for digests).
std::string exact(double v);

}  // namespace perfbench
