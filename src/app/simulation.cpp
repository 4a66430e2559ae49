#include "app/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/presets.hpp"
#include "common/log.hpp"

namespace rupam {

namespace {

// Run constants (DESIGN.md §4). Default Spark sizes every executor for the
// weakest node and RUPAM sizes per node ("dynamic executor memory",
// §III-C2); both leave this much headroom for OS+JVM overhead.
constexpr Bytes kExecutorMemoryHeadroom = 2.0 * kGiB;
// Fraction of each executor heap the block cache may use.
constexpr double kStorageFraction = 0.3;
// Utilization sampling period (sample_utilization).
constexpr SimTime kSamplePeriod = 1.0;

}  // namespace

std::vector<double> hdfs_placement_weights(const Cluster& cluster) {
  std::vector<double> weights;
  weights.reserve(cluster.size());
  for (NodeId id : cluster.node_ids()) {
    weights.push_back(cluster.node(id).spec().disk_capacity / kGiB);
  }
  return weights;
}

Simulation::Simulation(SimulationConfig config) : config_(std::move(config)) {
  cluster_ = std::make_unique<Cluster>(sim_, config_.switch_bandwidth);
  if (config_.nodes.empty()) {
    build_hydra(*cluster_);
  } else {
    for (const auto& spec : config_.nodes) cluster_->add_node(spec);
  }

  if (config_.enable_spans) spans_ = std::make_unique<SpanTrace>();
  for (NodeId id : cluster_->node_ids()) add_executor(id);

  heartbeats_ = std::make_unique<HeartbeatService>(*cluster_, kHeartbeatPeriod);
  SchedulerEnv env;
  env.sim = &sim_;
  env.cluster = cluster_.get();
  env.heartbeats = heartbeats_.get();

  scheduler_ = make_scheduler(config_.scheduler, std::move(env), config_.rupam);
  rupam_ = dynamic_cast<RupamScheduler*>(scheduler_.get());
  scheduler_->configure_speculation(config_.speculation);
  scheduler_->configure_pools(config_.pools);
  scheduler_->configure_preemption(config_.preemption);

  heartbeats_->subscribe([this](NodeId node) {
    OverheadProfiler::Scope scope(profiler_, ProfileSection::kHeartbeat);
    scheduler_->on_heartbeat(node);
  });

  dag_ = std::make_unique<DagScheduler>(
      sim_, [this](const TaskSet& set) { scheduler_->submit(set); });
  dag_->set_resubmit([this](const TaskSet& set) { scheduler_->resubmit(set); });
  scheduler_->set_partition_success_handler(
      [this](StageId stage, int partition, const TaskMetrics& metrics) {
        dag_->on_partition_success(stage, partition, metrics.node);
      });

  if (config_.sample_utilization) {
    sampler_ = std::make_unique<UtilizationSampler>(*cluster_, kSamplePeriod);
  }
  Observers observers;
  if (config_.enable_trace) {
    trace_ = std::make_unique<EventTrace>();
    observers.trace = trace_.get();
  }
  if (config_.enable_metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.enable_audit) {
    audit_ = std::make_unique<DecisionAudit>();
    observers.audit = audit_.get();
  }
  scheduler_->attach(observers);

  FaultPlan plan = config_.faults;
  if (config_.chaos_seed != 0) {
    FaultPlan chaos = make_chaos_plan(config_.chaos_seed, cluster_->size());
    plan.events.insert(plan.events.end(), chaos.events.begin(), chaos.events.end());
    plan.sort();
  }
  FaultToleranceConfig ft = config_.fault_tolerance;
  if (!plan.empty()) ft.enabled = true;  // faults imply blacklist + liveness
  scheduler_->configure_fault_tolerance(ft);
  if (!plan.empty()) {
    FaultInjectorEnv fenv;
    fenv.sim = &sim_;
    fenv.cluster = cluster_.get();
    fenv.heartbeats = heartbeats_.get();
    fenv.dag = dag_.get();
    fenv.trace = trace_.get();
    injector_ = std::make_unique<FaultInjector>(std::move(fenv), std::move(plan));
    injector_->arm();
  }

  // Membership side effects: the scheduler subscribed first (inside its
  // own constructor), so by the time this listener runs its indexes are
  // already reconciled and it's safe to crash the executor / retire rows.
  membership_token_ = cluster_->subscribe_membership(
      [this](NodeId node, NodeLifecycle state) { handle_membership(node, state); });

  if (config_.autoscale.enabled) {
    AutoscalerEnv aenv;
    aenv.sim = &sim_;
    aenv.cluster = cluster_.get();
    aenv.mix = config_.autoscale_class;
    if (aenv.mix.name.empty()) {
      aenv.mix.name = "spot";
      aenv.mix.base = hulk_spec();
    }
    aenv.pending_tasks = [this] { return scheduler_->pending_tasks(); };
    aenv.free_slots = [this] { return scheduler_->free_slots_total(); };
    aenv.node_running = [this](NodeId id) {
      const Executor* e = cluster_->node(id).executor();
      return e != nullptr && e->alive() ? e->running_tasks() : 0;
    };
    aenv.provision = [this](NodeSpec spec, SimTime boot_delay) {
      return provision_node(std::move(spec), boot_delay);
    };
    AutoscaleConfig acfg = config_.autoscale;
    if (acfg.seed == 0) acfg.seed = config_.seed;
    autoscaler_ = std::make_unique<Autoscaler>(std::move(aenv), acfg);
  }
}

Simulation::~Simulation() {
  if (autoscaler_) autoscaler_->stop();
  if (heartbeats_) heartbeats_->stop();
  if (sampler_) sampler_->stop();
  cluster_->unsubscribe_membership(membership_token_);
}

Executor& Simulation::add_executor(NodeId id) {
  Node& node = cluster_->node(id);
  // Executor sizing policy — the lever behind Fig 8(b)'s memory numbers:
  // default Spark must fit the weakest node everywhere, so its heap comes
  // from the smallest member's memory when this executor is created; RUPAM
  // sizes each executor to its node.
  Bytes memory = config_.scheduler == SchedulerKind::kRupam ? node.spec().memory
                                                             : cluster_->min_node_memory();
  ExecutorConfig ec;
  ec.heap = std::max(1.0 * kGiB, memory - kExecutorMemoryHeadroom);
  ec.storage_fraction = kStorageFraction;
  ec.task_slots = node.spec().cores;
  ec.oom_grace = config_.oom_grace;
  executors_.push_back(std::make_unique<Executor>(sim_, node, id, ec));
  Executor* exec = executors_.back().get();
  exec->set_peer_cache_probe([this, exec](const std::string& key) {
    for (const auto& other : executors_) {
      if (other.get() != exec && other->cache().contains(key)) return true;
    }
    return false;
  });
  if (spans_) exec->set_span_trace(spans_.get());
  return *exec;
}

NodeId Simulation::provision_node(NodeSpec spec, SimTime boot_delay) {
  NodeId id = cluster_->provision_node(std::move(spec), boot_delay);
  // Registered before the boot event fires, so when the node turns live
  // the scheduler already has a slot-accounting row for it.
  scheduler_->register_executor(&add_executor(id));
  return id;
}

void Simulation::trace_membership(NodeId node, TraceEventType type) {
  if (!trace_) return;
  TraceEvent t;
  t.time = sim_.now();
  t.type = type;
  t.node = node;
  t.detail = cluster_->node(node).spec().name;
  trace_->record(std::move(t));
}

void Simulation::handle_membership(NodeId node, NodeLifecycle state) {
  switch (state) {
    case NodeLifecycle::kProvisioning:
      trace_membership(node, TraceEventType::kNodeProvisioned);
      break;
    case NodeLifecycle::kLive:
      if (heartbeats_) heartbeats_->node_joined(node);
      if (sampler_) sampler_->node_joined(node);
      trace_membership(node, TraceEventType::kNodeJoined);
      break;
    case NodeLifecycle::kDraining:
      trace_membership(node, TraceEventType::kNodeDraining);
      break;
    case NodeLifecycle::kDecommissioned: {
      // Kill the executor (running attempts fail through the usual lost
      // path), invalidate its map outputs, take it off the heartbeat grid
      // and retire its sampler row. All idempotent — the fault injector may
      // have done some of this already.
      if (Executor* e = cluster_->node(node).executor()) e->crash();
      if (dag_) dag_->on_node_lost(node);
      if (heartbeats_) heartbeats_->node_left(node);
      if (sampler_) sampler_->node_left(node);
      trace_membership(node, TraceEventType::kNodeDecommissioned);
      break;
    }
  }
}

SimTime Simulation::run(const Application& app) {
  begin(app);
  return finish();
}

void Simulation::begin(const Application& app) {
  if (run_active_) {
    throw std::runtime_error("Simulation: begin() while another run is active");
  }
  app.validate();
  register_stage_parents(app);
  // Analysis wants per-job JCT records even on the single-app path; the
  // observers only copy ids into the accountant, so enabling them leaves
  // the simulated event sequence untouched.
  start_run("'" + app.name + "'", /*pending_apps=*/1, config_.enable_analysis);
  // DAG announcement (no-op for every scheduler without precomputed
  // priorities) strictly precedes the first stage submission.
  scheduler_->register_dag(app);
  dag_->run(app, [this] { app_finished(); });
}

void Simulation::start_run(std::string label, std::size_t pending_apps, bool collect_jobs) {
  jct_.reset();
  if (collect_jobs) {
    jct_.emplace();
    dag_->set_job_observer([this](const DagScheduler::JobStats& s) {
      jct_->note_finished(s.job, s.app, s.pool, s.name, s.submitted, s.finished);
    });
    scheduler_->set_launch_observer(
        [this](JobId job, SimTime now) { jct_->note_launch(job, now); });
  }
  run_label_ = std::move(label);
  run_started_ = sim_.now();
  run_pending_apps_ = pending_apps;
  run_finished_at_ = 0.0;
  run_steps_ = 0;
  run_active_ = true;
  heartbeats_->start();
  if (sampler_) sampler_->start();
  if (autoscaler_) autoscaler_->start();
}

void Simulation::app_finished() {
  --run_pending_apps_;
  run_finished_at_ = sim_.now();
}

void Simulation::step_once() {
  if (!sim_.step()) {
    throw std::runtime_error("Simulation: event queue drained before completion");
  }
  if (sim_.now() - run_started_ > config_.max_sim_time) {
    throw std::runtime_error("Simulation: exceeded max_sim_time — likely unschedulable");
  }
  if (++run_steps_ % 10000000 == 0) {
    RUPAM_WARN(sim_.now(), "simulation still running after ", run_steps_, " events (t=",
               sim_.now(), "s) — possible scheduling livelock");
  }
}

bool Simulation::advance_until(SimTime t) {
  if (!run_active_) throw std::runtime_error("Simulation: advance_until() without begin()");
  // Events strictly after t stay queued, so the simulation pauses at the
  // same quiescent point a straight run passes through at time t.
  while (run_pending_apps_ > 0 && sim_.next_event_time() <= t) step_once();
  return run_pending_apps_ == 0;
}

SimTime Simulation::finish() {
  if (!run_active_) throw std::runtime_error("Simulation: finish() without begin()");
  while (run_pending_apps_ > 0) step_once();
  if (autoscaler_) autoscaler_->stop();
  heartbeats_->stop();
  if (sampler_) sampler_->stop();
  snapshot_metrics();
  if (jct_) {
    dag_->set_job_observer(nullptr);
    scheduler_->set_launch_observer(nullptr);
    if (config_.enable_analysis) {
      analysis_jobs_.insert(analysis_jobs_.end(), jct_->jobs().begin(), jct_->jobs().end());
    }
  }
  run_active_ = false;
  RUPAM_INFO(sim_.now(), scheduler_->name(), " finished ", run_label_, " in ",
             run_finished_at_ - run_started_, "s");
  return run_finished_at_ - run_started_;
}

TenantRunReport Simulation::run(const SubmissionStream& stream) {
  if (stream.empty()) return {};
  if (run_active_) {
    throw std::runtime_error("Simulation: run(stream) while another run is active");
  }
  for (const TimedSubmission& s : stream.items()) {
    s.app.validate();
    register_stage_parents(s.app);
  }
  start_run(std::to_string(stream.size()) + " applications", stream.size(),
            /*collect_jobs=*/true);
  for (const TimedSubmission& s : stream.items()) {
    sim_.schedule_at(run_started_ + s.at, [this, &s] {
      // Same announce-before-submit contract as the single-app path, per
      // arriving application (still a no-op for rank-free schedulers).
      scheduler_->register_dag(s.app);
      dag_->submit_app(s.app, [this] { app_finished(); });
    });
  }
  TenantRunReport report;
  report.makespan = finish();
  report.jobs = jct_->jobs();
  report.overall = jct_->overall();
  report.per_pool = jct_->by_pool();
  return report;
}

void Simulation::register_stage_parents(const Application& app) {
  if (!spans_ && !config_.enable_analysis) return;
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      if (spans_ && !stage.parents.empty()) spans_->set_stage_parents(stage.id, stage.parents);
      if (config_.enable_analysis) {
        stage_job_[stage.id] = job.id;
        if (!stage.parents.empty()) analysis_stage_parents_[stage.id] = stage.parents;
      }
    }
  }
}

RunArtifacts Simulation::run_artifacts() const {
  RunArtifacts a;
  a.spans = spans_.get();
  a.audit = audit_.get();
  a.trace = trace_.get();
  a.jobs = analysis_jobs_;
  a.stage_job = stage_job_;
  a.stage_parents = analysis_stage_parents_;
  a.nodes.reserve(executors_.size());
  // Node ids are dense and never reused, so every executor ever created —
  // including ones whose node has since been decommissioned — maps to a
  // NodeSpec the cluster still holds.
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    const NodeSpec& spec = cluster_->node(id).spec();
    a.nodes.push_back({id, spec.name, spec.node_class, spec.cpu_perf, spec.gpus});
  }
  return a;
}

void Simulation::snapshot_metrics() {
  if (!metrics_) return;
  // The metric catalog (DESIGN.md §8). Every series is a projection of a
  // counter its component keeps anyway, rebuilt in full at each finish():
  // nothing writes the registry while a run is in flight.
  MetricsRegistry& m = *metrics_;
  m = MetricsRegistry();
  auto count = [&m](const std::string& name, const MetricLabels& labels, const char* help,
                    std::size_t value) {
    m.counter(name, labels, help).inc(static_cast<double>(value));
  };
  const SchedulerBase& sched = *scheduler_;
  for (int l = 0; l < kNumLocalityLevels; ++l) {
    auto locality = static_cast<Locality>(l);
    for (bool speculative : {false, true}) {
      count("rupam_sim_tasks_launched_total",
            {{"locality", std::string(to_string(locality))},
             {"speculative", speculative ? "true" : "false"}},
            "Task attempts launched by the scheduler", sched.launches(locality, speculative));
    }
  }
  count("rupam_sim_task_failures_total", {}, "Failed task attempts (OOM, executor loss)",
        sched.failures().size());
  count("rupam_sim_dispatch_rounds_total", {}, "try_dispatch rounds executed",
        sched.dispatch_rounds());
  count("rupam_sim_task_relocations_total", {}, "Straggler relocations (kill + relaunch)",
        sched.relocations());
  count("rupam_sim_blacklist_events_total", {{"action", "add"}},
        "Node blacklist additions and expiries", sched.blacklist_events());
  count("rupam_sim_blacklist_events_total", {{"action", "remove"}},
        "Node blacklist additions and expiries", sched.unblacklist_events());
  // Walked in completion order, so the float sums match a live tally.
  Counter& gc = m.counter("rupam_sim_gc_seconds_total", {},
                          "Simulated GC time across successful attempts");
  Histogram& delay = m.histogram("rupam_sim_scheduler_delay_seconds",
                                 {0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0}, {},
                                 "Submit-to-launch delay of successful attempts");
  Histogram& runtime = m.histogram("rupam_sim_task_runtime_seconds",
                                   {1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0}, {},
                                   "Runtime of successful attempts");
  for (const TaskMetrics& t : sched.completed()) {
    delay.observe(t.scheduler_delay);
    runtime.observe(t.run_time());
    gc.inc(t.gc_time);
  }
  count("rupam_sim_jobs_completed_total", {}, "Jobs completed", dag_->jobs_completed());
  count("rupam_sim_apps_completed_total", {}, "Applications completed",
        dag_->apps_completed());
  count("rupam_sim_stages_submitted_total", {}, "Stages submitted", dag_->stages_submitted());
  count("rupam_sim_stages_completed_total", {}, "Stages completed", dag_->stages_completed());
  count("rupam_sim_partitions_resubmitted_total", {},
        "Partitions recomputed after losing their map output", dag_->recomputed_partitions());
  if (injector_) {
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      auto kind = static_cast<FaultKind>(k);
      // A kind's series appears with its first applied fault.
      if (injector_->injected(kind) == 0) continue;
      count("rupam_sim_faults_injected_total", {{"kind", std::string(to_string(kind))}},
            "Fault events applied", injector_->injected(kind));
    }
  }
  // busy_seconds() integrates from simulator start, so the busy fraction is
  // taken over total simulated time — valid across repeated run() calls.
  SimTime elapsed = sim_.now();
  for (NodeId id : cluster_->node_ids()) {
    Node& node = cluster_->node(id);
    std::string label = std::to_string(id);
    auto busy = [&](const char* resource, FairShareResource& r) {
      double f = elapsed > 0.0 ? std::min(1.0, r.busy_seconds() / elapsed) : 0.0;
      m.gauge("rupam_sim_node_busy_fraction", {{"node", label}, {"resource", resource}},
              "Fraction of simulated time the resource had at least one active claim")
          .set(f);
    };
    busy("cpu", node.cpu());
    busy("net", node.net());
    busy("disk_read", node.disk_read());
    busy("disk_write", node.disk_write());
  }
  m.gauge("rupam_sim_oom_kills", {}, "Task attempts killed by the memory guard")
      .set(static_cast<double>(total_oom_kills()));
  m.gauge("rupam_sim_executor_losses", {}, "Executors lost to GC death spirals")
      .set(static_cast<double>(total_executor_losses()));
}

std::size_t Simulation::total_oom_kills() const {
  std::size_t n = 0;
  for (const auto& e : executors_) n += e->oom_kills();
  return n;
}

std::size_t Simulation::total_executor_losses() const {
  std::size_t n = 0;
  for (const auto& e : executors_) n += e->executor_losses();
  return n;
}

std::size_t Simulation::recomputed_partitions() const { return dag_->recomputed_partitions(); }

}  // namespace rupam
