// tenant_sweep: the sweep engine's real use — a run_sweep grid of
// multi-tenant arrival cells on the Hydra fleet (FAIR pools, static /
// autoscale / autoscale+preempt, fault-free and a spot+crash+slowdown
// plan, analyze on) on a small worker pool. Untraced passes go through
// run_sweep_cell behind the SweepOptions::runner seam, timed per cell.
// Traced passes run the same cell body through public calls so a
// profiler and spans can be attached; the matrices must stay identical.
#include <atomic>
#include <cmath>
#include <fstream>

#include "bench.hpp"
#include "cluster/fleet.hpp"
#include "faults/fault_plan.hpp"
#include "sweep/orchestrator.hpp"

namespace perfbench {

using namespace rupam;

namespace {

struct CellRun {
  RunResult result;
  double loop_s = 0.0;
};

/// A cell run's simulation and arrival stream, built as run_sweep_cell
/// builds them. `sinks` false drops the analysis sinks.
struct CellSetup {
  std::unique_ptr<Simulation> sim;
  SubmissionStream stream;
  std::size_t jobs = 0;  // jobs the stream submits
};

CellSetup set_up_cell(const SweepSpec& spec, const CellCoord& cell, std::uint64_t seed,
                      bool sinks, SpanLog* log, int run) {
  const bool analyze = spec.analyze && sinks;
  SimulationConfig cfg;
  cfg.scheduler = spec.schedulers.at(cell.scheduler);
  FleetSpec fleet;
  {
    SpanScope span(log, "cluster.generate_fleet", run);
    fleet = sweep_fleet_spec(spec.fleet_sizes.at(cell.fleet), spec.base_seed);
    cfg.nodes = generate_fleet(fleet);
  }
  if (fleet.switch_bandwidth > 0.0) cfg.switch_bandwidth = fleet.switch_bandwidth;
  cfg.pools.policy = spec.pool_policy;
  cfg.sample_utilization = spec.sample_utilization;
  const std::string& plan = spec.fault_plans.at(cell.fault);
  if (!plan.empty()) cfg.faults = parse_fault_spec(plan);
  bool autoscale = false, preempt = false;
  parse_elastic_mode(spec.elastic_modes.at(cell.elastic), autoscale, preempt);
  cfg.autoscale.enabled = autoscale;
  cfg.preemption.enabled = preempt;
  cfg.enable_analysis = analyze;
  cfg.enable_spans = analyze;
  cfg.enable_audit = analyze;
  cfg.enable_trace = analyze;
  cfg.seed = seed;

  ArrivalConfig arrivals;
  arrivals.rate = spec.arrival_rates.at(cell.rate);
  arrivals.duration = spec.duration;
  arrivals.tenants = spec.tenants;
  arrivals.seed = seed;
  arrivals.iterations_override = spec.iterations_override;
  arrivals.mix = spec.mix;
  arrivals.max_apps = spec.max_apps;

  CellSetup out;
  {
    SpanScope span(log, "app.construct", run);
    out.sim = std::make_unique<Simulation>(cfg);
  }
  {
    SpanScope span(log, "workloads.build", run);
    out.stream = make_poisson_stream(arrivals, out.sim->cluster().node_ids());
  }
  for (const TimedSubmission& s : out.stream.items()) out.jobs += s.app.jobs.size();
  return out;
}

/// The cell body run_sweep_cell executes, made of public calls so spans
/// and a profiler can wrap each layer. `sinks` false drops the analysis
/// sinks (the record-share comparison).
CellRun run_cell(const SweepSpec& spec, const CellCoord& cell, int replication,
                 std::uint64_t seed, bool sinks, bool profile, SpanLog* log, int run,
                 LayerStats* layers, Operation* op) {
  CellRun out;
  RunResult& r = out.result;
  r.seed = seed;
  r.replication = replication;
  const bool analyze = spec.analyze && sinks;
  CellSetup setup = set_up_cell(spec, cell, seed, sinks, log, run);
  Simulation* sim = setup.sim.get();
  const SubmissionStream& stream = setup.stream;
  r.apps = stream.size();

  OverheadProfiler profiler;
  if (profile) attach_profiler(*sim, profiler);
  const std::uint64_t allocs0 = thread_allocs();
  const std::int64_t t0 = now_ns();
  TenantRunReport report;
  {
    SpanScope span(log, "app.run_stream", run);
    report = sim->run(stream);
  }
  const double loop_ns = static_cast<double>(now_ns() - t0);
  out.loop_s = loop_ns / 1e9;
  r.makespan = report.makespan;
  r.jobs = report.jobs.size();
  r.mean_jct = report.overall.mean;
  r.p50_jct = report.overall.p50;
  r.p95_jct = report.overall.p95;
  r.p99_jct = report.overall.p99;
  r.mean_queueing = report.overall.mean_queueing;
  if (sim->sampler() != nullptr) r.avg_cpu_util = sim->sampler()->avg_cpu_util();
  if (analyze) {
    RunArtifacts artifacts;
    {
      SpanScope span(log, "app.run_artifacts", run);
      artifacts = sim->run_artifacts();
    }
    RunDiagnosis diagnosis;
    {
      SpanScope span(log, "obs.analyze_run", run);
      diagnosis = analyze_run(artifacts);
    }
    r.analyzer = summarize_diagnosis(diagnosis);
    r.analyzed = true;
    if (op != nullptr) {
      op->check(tiling_residual(diagnosis) <= 1e-9, "cell JCT tiling residual > 1e-9");
    }
  }
  r.kernel = sim->sim().stats();
  r.ok = true;

  if (op != nullptr) {
    op->check(sim->dag().finished(), "cell: applications still active");
    op->check(sim->dag().apps_completed() == stream.size(), "cell: apps completed != submitted");
    op->check(report.jobs.size() == setup.jobs, "cell: jobs completed != submitted");
  }
  if (layers != nullptr) {
    *layers = collect_layers(*sim, profile ? &profiler : nullptr, loop_ns,
                             thread_allocs() - allocs0);
    if (op != nullptr && profile) check_attribution(*op, *layers);
  }
  if (profile) sim->set_profiler(nullptr);
  return out;
}

class TenantSweep final : public Workload {
 public:
  TenantSweep(std::uint64_t seed, bool smoke, int workers, const std::string& scratch)
      : workers_(workers), spec_path_(scratch + "/tenant_sweep.json") {
    SweepSpec spec;
    spec.name = "tenant_sweep";
    spec.base_seed = mix_seed(seed, 0);
    // RUPAM cells cost about four times a Spark or FIFO cell. With two
    // schedulers the median would sit in the gap between the two clusters
    // and jump between runs; with three it sits inside the cheap cluster
    // and the p90 tail inside RUPAM's.
    spec.schedulers = {SchedulerKind::kSpark, SchedulerKind::kFifo, SchedulerKind::kRupam};
    spec.fleet_sizes = {12};
    spec.arrival_rates = {0.1};
    spec.fault_plans = {"", "spot@40:node=2:notice=10;crash@60:node=5:down=30;"
                            "slow@30:node=0:res=cpu:factor=0.5:for=40"};
    spec.elastic_modes = {"", "autoscale", "autoscale+preempt"};
    // One workload in the mix and an arrival horizon that always fills
    // max_apps: every cell does comparable work, so the run's cell-latency
    // quantiles do not swing with which workloads a seed happens to draw.
    spec.duration = 120.0;
    spec.tenants = 2;
    spec.pool_policy = PoolPolicy::kFair;
    spec.mix = {"TeraSort"};
    spec.max_apps = 4;
    spec.analyze = true;
    spec.replications = 4;
    if (smoke) {
      spec.schedulers = {SchedulerKind::kRupam};
      spec.elastic_modes = {"", "autoscale+preempt"};
      spec.replications = 1;
    } else {
      tail_pct = 90;
      min_ops = 100;
    }
    probes_per_pass = 8;
    std::ofstream(spec_path_) << sweep_to_json(spec);
  }

  void run_pass(Pass& pass) override {
    const std::int64_t t0 = now_ns();
    SweepSpec spec;
    {
      SpanScope span(pass.spans, "sweep.load_spec");
      spec = load_sweep_file(spec_path_);
      spec.validate();
    }
    // The set-up every cell repeats (fleet, Simulation, arrival stream),
    // measured here outside the pool: behind run_sweep_cell it cannot be
    // told apart from the run. It also yields each run's expected counts.
    const std::size_t total = spec.total_runs();
    std::vector<Expected> expected;
    for (std::size_t i = 0; i < total; ++i) {
      const int rep = static_cast<int>(i % static_cast<std::size_t>(spec.replications));
      CellCoord cell = spec.cell_at(i / static_cast<std::size_t>(spec.replications));
      CellSetup setup = set_up_cell(spec, cell, derive_run_seed(spec, cell, rep), true,
                                    pass.spans, -1);
      expected.push_back({setup.stream.size(), setup.jobs});
    }
    std::vector<double> cell_ms(total, 0.0);
    std::vector<std::string> check_errors(total);
    std::atomic<std::int64_t> first_entry{0};

    SweepOptions options;
    options.threads = workers_;
    options.runner = [&](const SweepSpec& s, const CellCoord& c, int rep, std::uint64_t seed) {
      std::int64_t start = now_ns();
      std::int64_t unset = 0;
      first_entry.compare_exchange_strong(unset, start);
      const std::size_t index =
          s.cell_index(c) * static_cast<std::size_t>(s.replications) + static_cast<std::size_t>(rep);
      struct Timer {
        double& slot;
        std::int64_t start;
        ~Timer() { slot = static_cast<double>(now_ns() - start) / 1e6; }
      } timer{cell_ms[index], start};
      if (!pass.traced) return run_sweep_cell(s, c, rep, seed);
      return traced_cell(pass, s, c, rep, seed, static_cast<int>(index), check_errors[index]);
    };

    SweepMatrix matrix;
    const std::int64_t sweep0 = now_ns();
    {
      SpanScope span(pass.spans, "sweep.run_sweep");
      matrix = run_sweep(spec, options);
    }
    const std::int64_t sweep_ns = now_ns() - sweep0;
    pass.setup_s += static_cast<double>(std::max(first_entry.load(), sweep0) - t0) / 1e9;
    std::string matrix_json;
    {
      SpanScope span(pass.spans, "sweep.to_json");
      matrix_json = matrix.to_json();
    }

    pass.attempted += total;
    pass.op_ms.insert(pass.op_ms.end(), cell_ms.begin(), cell_ms.end());
    pass.cell_ms.insert(pass.cell_ms.end(), cell_ms.begin(), cell_ms.end());
    std::size_t index = 0;
    for (const CellResult& cell : matrix.cells) {
      for (const RunResult& r : cell.reps) {
        std::string error = check_run(r, expected.at(index)) + check_errors[index];
        if (!error.empty()) {
          ++pass.failed;
          pass.fail("cell " + std::to_string(index) + ": " + error);
        }
        if (r.ok) record_run(pass, spec.schedulers.at(cell.coord.scheduler), r);
        ++index;
      }
    }
    pass.loop_s += static_cast<double>(sweep_ns) / 1e9;
    pass.sweep_wall_s += static_cast<double>(sweep_ns) / 1e9;
    for (double ms : cell_ms) pass.sweep_cell_wall_s += ms / 1e3;
    pass.sweep_workers = static_cast<double>(std::min<std::size_t>(workers_, total));
    pass.sweep_failed_cells += matrix.failed_runs();
    pass.digest += matrix_json;
    pass.inputs += sweep_to_json(spec);
  }

  /// Record share: the first runs again without a profiler, with the
  /// analysis sinks on and off; the simulated outcome must not move.
  void after_traced_pass(Pass& pass) override {
    SweepSpec spec = load_sweep_file(spec_path_);
    const std::size_t runs = std::min<std::size_t>(2, spec.total_runs());
    for (std::size_t i = 0; i < runs; ++i) {
      CellCoord cell = spec.cell_at(i / static_cast<std::size_t>(spec.replications));
      int rep = static_cast<int>(i % static_cast<std::size_t>(spec.replications));
      std::uint64_t seed = derive_run_seed(spec, cell, rep);
      Operation op(pass, "bench.op");
      try {
        CellRun on = run_cell(spec, cell, rep, seed, true, false, nullptr, op.run(), nullptr, &op);
        CellRun off = run_cell(spec, cell, rep, seed, false, false, nullptr, op.run(), nullptr, &op);
        op.check(on.result.makespan == off.result.makespan,
                 "sinks changed the simulated makespan");
        pass.record_on_s += on.loop_s;
        pass.record_off_s += off.loop_s;
      } catch (const std::exception& e) {
        op.fail(std::string("record share: ") + e.what());
      }
    }
  }

  double jct_p95(const Pass& pass) const override {
    // The matrix carries each run's p95 JCT, not every job: report their mean.
    double sum = 0.0;
    for (double v : pass.jcts) sum += v;
    return pass.jcts.empty() ? 0.0 : sum / static_cast<double>(pass.jcts.size());
  }

 private:
  struct Expected {
    std::size_t apps = 0;
    std::size_t jobs = 0;
  };

  static std::string check_run(const RunResult& r, const Expected& expected) {
    if (!r.ok) return "sweep error entry: " + r.error;
    std::string error;
    if (r.apps != expected.apps) error += "apps " + std::to_string(r.apps) + " != submitted; ";
    if (r.jobs != expected.jobs) error += "jobs " + std::to_string(r.jobs) + " != submitted; ";
    if (!(std::isfinite(r.makespan) && r.makespan > 0.0)) error += "makespan not finite > 0; ";
    if (!r.analyzed) error += "analyze summary missing; ";
    return error;
  }

  static void record_run(Pass& pass, SchedulerKind kind, const RunResult& r) {
    pass.sim_s += r.makespan;
    pass.makespans.push_back(r.makespan);
    pass.jcts.push_back(r.p95_jct);
    if (kind == SchedulerKind::kSpark) pass.spark_makespans.push_back(r.makespan);
    if (kind == SchedulerKind::kRupam) pass.rupam_makespans.push_back(r.makespan);
  }

  /// Traced runner body: spans and a profiler around the public calls, the
  /// counters merged into the pass under its lock.
  RunResult traced_cell(Pass& pass, const SweepSpec& spec, const CellCoord& cell, int rep,
                        std::uint64_t seed, int run, std::string& errors) {
    SpanLog log;
    LayerStats layers;
    Pass scratch;  // collects this cell's check failures without locking
    Operation op(scratch, "bench.op");
    CellRun out;
    {
      SpanScope root(&log, "sweep.cell", run);
      out = run_cell(spec, cell, rep, seed, true, true, &log, run, &layers, &op);
    }
    for (const std::string& e : scratch.errors) errors += e + "; ";
    std::lock_guard<std::mutex> lock(pass.mu);
    pass.layers += layers;
    const int base = static_cast<int>(pass.worker_spans.size());
    for (Span span : log.spans()) {
      if (span.parent >= 0) span.parent += base;
      pass.worker_spans.push_back(span);
    }
    return out.result;
  }

  int workers_;
  std::string spec_path_;
};

}  // namespace

std::unique_ptr<Workload> make_tenant_sweep(std::uint64_t seed, bool smoke, int workers,
                                            const std::string& scratch) {
  return std::make_unique<TenantSweep>(seed, smoke, workers, scratch);
}

}  // namespace perfbench
