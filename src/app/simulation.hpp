// Public façade: wire a cluster, executors, a scheduler, heartbeats and
// samplers together and run one Spark application to completion.
//
//   rupam::SimulationConfig cfg;
//   cfg.scheduler = rupam::SchedulerKind::kRupam;   // or kSpark
//   rupam::Simulation sim(cfg);                      // 12-node Hydra default
//   auto app = rupam::build_workload(rupam::workload_preset("PR"),
//                                    sim.cluster().node_ids(), /*seed=*/1);
//   rupam::SimTime makespan = sim.run(app);
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "app/arrivals.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "cluster/heartbeat.hpp"
#include "dag/dag_scheduler.hpp"
#include "exec/executor.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/jct.hpp"
#include "metrics/utilization_sampler.hpp"
#include "obs/analyzer.hpp"
#include "obs/audit.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/overhead.hpp"
#include "obs/spans.hpp"
#include "sched/factory.hpp"

namespace rupam {

/// HDFS-style block placement weights: proportional to each node's
/// storage capacity (pass to build_workload).
std::vector<double> hdfs_placement_weights(const Cluster& cluster);

struct SimulationConfig {
  SchedulerKind scheduler = SchedulerKind::kSpark;

  /// Cluster layout; empty = the paper's 12-node Hydra cluster.
  std::vector<NodeSpec> nodes;
  Bytes switch_bandwidth = gbit_per_s(1.0);

  /// GC-thrash window before an overfilled executor resolves (OOM/loss).
  SimTime oom_grace = 2.0;

  SpeculationConfig speculation;
  RupamConfig rupam;
  /// Cross-job scheduling policy and pool definitions (FIFO by default —
  /// identical to single-tenant behaviour).
  PoolConfig pools;
  /// Fair-share preemption (off by default; needs kFair pools).
  PreemptionConfig preemption;

  /// Pending-pressure autoscaling (off by default). When enabled, nodes
  /// of `autoscale_class` are minted/drained at runtime; an empty class
  /// name falls back to a hulk-derived "spot" template.
  AutoscaleConfig autoscale;
  NodeClassMix autoscale_class;

  bool sample_utilization = false;
  /// Record a structured scheduling-event trace (CSV / chrome-tracing
  /// exportable via Simulation::trace()).
  bool enable_trace = false;

  /// Observability layer (src/obs/). All three default off; when off the
  /// simulation takes no extra allocations and produces byte-identical
  /// traces. `enable_metrics` keeps a MetricsRegistry that every finish()
  /// refills from the scheduler's, DAG scheduler's, fault injector's and
  /// nodes' own counters (nothing writes it mid-run); `enable_audit`
  /// records one DispatchDecision per launch; `enable_spans` records
  /// per-attempt task-phase spans exportable as a Perfetto trace.
  bool enable_metrics = false;
  bool enable_audit = false;
  bool enable_spans = false;
  /// Collect the extra joins analyze_run needs (per-job JCT records and
  /// stage→job / stage→parents maps) so run_artifacts() is complete.
  /// Recording only copies ids at job completion — it schedules no
  /// simulator events, so enabling it never perturbs the simulated run.
  bool enable_analysis = false;

  /// Declarative fault plan to replay (see faults/fault_plan.hpp).
  FaultPlan faults;
  /// Non-zero: merge in a seeded random chaos plan (make_chaos_plan's
  /// default horizon).
  std::uint64_t chaos_seed = 0;
  /// Blacklisting + missed-heartbeat liveness. Auto-enabled whenever a
  /// fault plan or chaos seed is configured.
  FaultToleranceConfig fault_tolerance;

  /// Safety valve: abort runs that exceed this much simulated time.
  SimTime max_sim_time = 48.0 * 3600.0;

  std::uint64_t seed = 1;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run `app` to completion; returns the makespan in simulated seconds.
  /// Throws std::runtime_error if max_sim_time is exceeded. Exactly
  /// begin(app) followed by finish() — the incremental API below exists
  /// for the replay layer, which needs to pause at event boundaries.
  SimTime run(const Application& app);

  /// Incremental run — same semantics as run(app), split at quiescent
  /// points so callers (checkpointing, src/replay/) can stop mid-run:
  ///
  ///   sim.begin(app);
  ///   sim.advance_until(t);   // fires every event with time <= t
  ///   ... capture state ...
  ///   SimTime makespan = sim.finish();
  ///
  /// `app` must outlive the run (the DAG scheduler keeps a pointer).
  /// begin() submits and starts services; advance_until() returns true
  /// once the application completed; finish() runs to completion, stops
  /// services and returns the makespan. A straight begin+finish executes
  /// the identical event sequence as run(app).
  void begin(const Application& app);
  bool advance_until(SimTime t);
  SimTime finish();
  /// True between begin() and finish().
  bool run_active() const { return run_active_; }

  /// Replay seam passthrough (see SchedulerBase::set_dispatch_interceptor).
  void set_dispatch_interceptor(SchedulerBase::DispatchInterceptor fn) {
    scheduler_->set_dispatch_interceptor(std::move(fn));
  }

  /// Multi-tenant entry point: run every timed submission in `stream` to
  /// completion (applications overlap according to their arrival times and
  /// the configured pool policy) and return per-job JCT accounting. The
  /// stream must outlive the call. Arrivals are scheduled events; the run
  /// then steps through the same finish() loop as a single application.
  TenantRunReport run(const SubmissionStream& stream);

  Simulator& sim() { return sim_; }
  Cluster& cluster() { return *cluster_; }
  SchedulerBase& scheduler() { return *scheduler_; }
  /// Non-null when the scheduler is RUPAM.
  RupamScheduler* rupam_scheduler() { return rupam_; }
  Executor& executor(NodeId node) { return *executors_.at(static_cast<std::size_t>(node)); }
  const UtilizationSampler* sampler() const { return sampler_.get(); }
  /// Non-null when enable_trace was set.
  const EventTrace* trace() const { return trace_.get(); }
  /// Non-null when a fault plan or chaos seed was configured.
  const FaultInjector* injector() const { return injector_.get(); }
  DagScheduler& dag() { return *dag_; }
  HeartbeatService& heartbeats() { return *heartbeats_; }
  /// Non-null when autoscaling was enabled.
  Autoscaler* autoscaler() { return autoscaler_.get(); }

  /// Add a node (and its executor, sized by the configured policy) to the
  /// running simulation. The node boots for `boot_delay` seconds, then
  /// goes live and joins heartbeats/sampling; every subscribed layer sees
  /// the membership transition. This is the autoscaler's provision hook,
  /// public so tests can exercise mid-run joins directly.
  NodeId provision_node(NodeSpec spec, SimTime boot_delay);

  /// Non-null when enable_metrics was set. Every finish() (so every run())
  /// rebuilds it from the components' counters; empty before the first
  /// run ends.
  MetricsRegistry* metrics() { return metrics_.get(); }
  /// Non-null when enable_audit was set: one record per task launch.
  DecisionAudit* audit() { return audit_.get(); }
  /// Non-null when enable_spans was set.
  SpanTrace* spans() { return spans_.get(); }
  /// Bundle every recorded artifact for analyze_run. Jobs accumulate
  /// across run() calls when enable_analysis is set; node facts cover
  /// every executor ever registered, decommissioned ones included.
  RunArtifacts run_artifacts() const;
  /// Attach a host wall-clock profiler to the scheduler's decision path
  /// and the heartbeat pump (not owned; pass nullptr to detach).
  void set_profiler(OverheadProfiler* profiler) {
    profiler_ = profiler;
    Observers o = scheduler_->observers();
    o.profiler = profiler;
    scheduler_->attach(o);
  }

  std::size_t total_oom_kills() const;
  std::size_t total_executor_losses() const;
  /// Partitions recomputed because a crash destroyed their map output.
  std::size_t recomputed_partitions() const;

 private:
  SimulationConfig config_;
  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::unique_ptr<HeartbeatService> heartbeats_;
  std::unique_ptr<SchedulerBase> scheduler_;
  RupamScheduler* rupam_ = nullptr;
  std::unique_ptr<DagScheduler> dag_;
  std::unique_ptr<UtilizationSampler> sampler_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::unique_ptr<EventTrace> trace_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<DecisionAudit> audit_;
  std::unique_ptr<SpanTrace> spans_;
  OverheadProfiler* profiler_ = nullptr;
  /// Run state shared by begin/advance_until/finish and run(stream). The
  /// accountant lives from the run's start to the next one, so run(stream)
  /// reads its report after finish().
  std::optional<JctAccountant> jct_;
  std::string run_label_;
  SimTime run_started_ = 0.0;
  SimTime run_finished_at_ = 0.0;
  std::size_t run_steps_ = 0;
  std::size_t run_pending_apps_ = 0;  // submitted or still to arrive
  bool run_active_ = false;
  /// Analysis joins (filled only when config_.enable_analysis).
  std::vector<JobCompletion> analysis_jobs_;
  std::map<StageId, JobId> stage_job_;
  std::map<StageId, std::vector<StageId>> analysis_stage_parents_;
  /// Jitter stream for runtime-provisioned executors — separate from the
  /// construction-time stream so elastic runs never perturb the initial
  /// executors' draws (golden traces depend on them).
  Rng elastic_rng_{0, 0};
  std::size_t membership_token_ = 0;

  void register_stage_parents(const Application& app);
  /// Build `id`'s executor, sized by the configured policy, and wire it to
  /// its peers' caches and the span sink. `rng` is its jitter stream.
  Executor& add_executor(NodeId id, Rng rng);
  /// The prologue every run shares: reset run state, install the JCT
  /// observers when `collect_jobs`, start heartbeats, sampler and
  /// autoscaler. Submitting the applications is the caller's part.
  void start_run(std::string label, std::size_t pending_apps, bool collect_jobs);
  /// Completion callback of each submitted application.
  void app_finished();
  /// Fire one event; throws on drained queue / max_sim_time overrun.
  void step_once();
  void handle_membership(NodeId node, NodeLifecycle state);
  void trace_membership(NodeId node, TraceEventType type);
  /// Refill the metrics registry (when enabled) from the components.
  void snapshot_metrics();
};

}  // namespace rupam
