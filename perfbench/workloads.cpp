// Single-application workloads: hydra_paper (the paper's Table III runs on
// the 12-node Hydra preset) and fleet_1000 (the scale_fleet set-up at
// N=1000), plus the run helper every single-application run goes through.
#include <cmath>

#include "bench.hpp"
#include "cluster/fleet.hpp"
#include "workloads/presets.hpp"

namespace perfbench {

using namespace rupam;

double run_application(Pass& pass, Operation& op, Simulation& sim, const Application& app,
                       const std::string& label, bool observe_jobs) {
  OverheadProfiler profiler;
  if (pass.traced) attach_profiler(sim, profiler);
  std::vector<double> jcts;
  if (observe_jobs) {
    sim.dag().set_job_observer(
        [&jcts](const DagScheduler::JobStats& s) { jcts.push_back(s.finished - s.submitted); });
  }
  const std::uint64_t allocs0 = thread_allocs();
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(pass.spans, "app.begin", op.run());
    sim.begin(app);
  }
  const std::size_t beat_entries = sim.heartbeats().queue_entries();
  SimTime makespan = 0.0;
  {
    SpanScope span(pass.spans, "app.finish", op.run());
    makespan = sim.finish();
  }
  const double loop_ns = static_cast<double>(now_ns() - t0);
  const std::uint64_t loop_allocs = thread_allocs() - allocs0;
  if (observe_jobs) sim.dag().set_job_observer(nullptr);

  LayerStats layers = collect_layers(sim, pass.traced ? &profiler : nullptr, loop_ns, loop_allocs);
  layers.heartbeat_queue_entries = beat_entries;
  if (pass.traced) sim.set_profiler(nullptr);

  op.check(sim.dag().finished(), label + ": application did not finish");
  op.check(sim.dag().apps_completed() == 1, label + ": apps completed != 1");
  op.check(sim.dag().jobs_completed() == app.jobs.size(),
           label + ": jobs completed " + std::to_string(sim.dag().jobs_completed()) +
               " != submitted " + std::to_string(app.jobs.size()));
  op.check(std::isfinite(makespan) && makespan > 0.0, label + ": makespan not finite and > 0");
  if (pass.traced) check_attribution(op, layers);

  pass.loop_s += loop_ns / 1e9;
  pass.sim_s += makespan;
  pass.makespans.push_back(makespan);
  pass.jcts.insert(pass.jcts.end(), jcts.begin(), jcts.end());
  const std::string scheduler = sim.scheduler().name();
  if (scheduler == "Spark") pass.spark_makespans.push_back(makespan);
  if (scheduler == "RUPAM") pass.rupam_makespans.push_back(makespan);
  pass.digest += label + " makespan=" + exact(makespan) +
                 " events=" + std::to_string(layers.events) +
                 " launches=" + std::to_string(layers.launches) +
                 " jobs=" + std::to_string(layers.jobs_completed) + "\n";
  pass.layers += layers;
  return makespan;
}

double app_fingerprint(const Application& app) {
  double sum = 0.0;
  for (const Job& job : app.jobs) {
    for (const Stage& stage : job.stages) {
      for (const TaskSpec& task : stage.tasks.tasks) {
        sum += task.input_bytes + task.compute + task.shuffle_read_bytes;
      }
    }
  }
  return sum;
}

double tiling_residual(const RunDiagnosis& diagnosis) {
  double worst = 0.0;
  for (const JobDiagnosis& job : diagnosis.jobs) {
    worst = std::max(worst, std::abs(job.critical_path.total() - job.jct));
  }
  return worst;
}

void check_attribution(Operation& op, const LayerStats& layers) {
  // Heap maintenance nests inside dispatch and heartbeat, so it is not
  // added again.
  double attributed = layers.dispatch_ns + layers.heartbeat_ns + layers.enqueue_ns;
  op.check(attributed <= layers.loop_ns,
           "profiled sections " + exact(attributed) + " ns exceed the run-loop wall " +
               exact(layers.loop_ns) + " ns");
}

namespace {

/// Build and run one preset application under `cfg` as one operation.
void run_preset_op(Pass& pass, const std::string& label, SimulationConfig cfg,
                   const WorkloadPreset& preset, std::uint64_t app_seed) {
  Operation op(pass, "bench.op");
  try {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Simulation> sim;
    {
      SpanScope span(pass.spans, "app.construct", op.run());
      sim = std::make_unique<Simulation>(std::move(cfg));
    }
    Application app;
    {
      SpanScope span(pass.spans, "workloads.build", op.run());
      app = build_workload(preset, sim->cluster().node_ids(), app_seed, 0,
                           hdfs_placement_weights(sim->cluster()));
    }
    pass.setup_s += static_cast<double>(now_ns() - t0) / 1e9;
    pass.inputs += label + " " + exact(app_fingerprint(app)) + "\n";
    run_application(pass, op, *sim, app, label, /*observe_jobs=*/true);
  } catch (const std::exception& e) {
    op.fail(label + ": " + e.what());
  }
}

/// hydra_paper: every Table III workload on the 12-node Hydra preset under
/// all five schedulers, sinks off, `reps` seeded replications per pass.
/// HEFT×PR is left out: HEFT ignores memory and livelocks on PageRank's
/// cached lineage until max_sim_time.
class HydraPaper final : public Workload {
 public:
  HydraPaper(std::uint64_t seed, bool smoke) : seed_(seed) {
    if (smoke) {
      presets_ = {"GM", "TeraSort"};
      kinds_ = {SchedulerKind::kSpark, SchedulerKind::kRupam};
      reps_ = 1;
    } else {
      for (const WorkloadPreset& p : table3_workloads()) presets_.push_back(p.name);
      kinds_ = {SchedulerKind::kSpark, SchedulerKind::kRupam, SchedulerKind::kStageAware,
                SchedulerKind::kFifo, SchedulerKind::kHeft};
      reps_ = 4;
      tail_pct = 95;
      min_ops = 200;
    }
  }

  void run_pass(Pass& pass) override {
    for (int rep = 0; rep < reps_; ++rep) {
      const std::uint64_t run_seed = mix_seed(seed_, static_cast<std::uint64_t>(rep));
      for (const std::string& name : presets_) {
        for (SchedulerKind kind : kinds_) {
          if (kind == SchedulerKind::kHeft && name == "PR") continue;
          SimulationConfig cfg;
          cfg.scheduler = kind;
          cfg.seed = run_seed;
          std::string label = name + "/" + std::string(to_string(kind)) + "/rep" +
                              std::to_string(rep);
          run_preset_op(pass, label, std::move(cfg), workload_preset(name), run_seed);
        }
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> presets_;
  std::vector<SchedulerKind> kinds_;
  int reps_ = 1;
};

/// fleet_1000: scale_fleet's largest point — generated Hydra-ratio fleets
/// of 1000 nodes, TeraSort, FIFO/Spark/StageAware/RUPAM, speculation and
/// sinks off. A pass runs four seeded fleets at 0.25 GB/node (half
/// scale_fleet's input) rather than one at 0.5 GB/node: one fleet's
/// latencies swing about 10% with the seed, four average that out at the
/// same cost.
class Fleet1000 final : public Workload {
 public:
  Fleet1000(std::uint64_t seed, bool smoke)
      : seed_(seed), nodes_(smoke ? 100 : 1000), fleets_(smoke ? 1 : 4) {
    // Sixteen simulations a pass: too few for a percentile with ten
    // samples beyond it, so the tail is p90.
    tail_pct = 90;
  }

  void run_pass(Pass& pass) override {
    WorkloadPreset preset = workload_preset("TeraSort");
    preset.input_gb = 0.25 * static_cast<double>(nodes_);
    for (int k = 0; k < fleets_; ++k) {
      const std::int64_t t0 = now_ns();
      FleetSpec spec;
      std::vector<NodeSpec> fleet;
      {
        SpanScope span(pass.spans, "cluster.generate_fleet");
        spec = scaled_hydra_fleet(nodes_, mix_seed(seed_, 10 + static_cast<std::uint64_t>(k)));
        fleet = generate_fleet(spec);
      }
      pass.setup_s += static_cast<double>(now_ns() - t0) / 1e9;
      const std::uint64_t app_seed = mix_seed(seed_, 20 + static_cast<std::uint64_t>(k));
      for (SchedulerKind kind : {SchedulerKind::kFifo, SchedulerKind::kSpark,
                                 SchedulerKind::kStageAware, SchedulerKind::kRupam}) {
        SimulationConfig cfg;
        cfg.scheduler = kind;
        cfg.nodes = fleet;
        if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
        cfg.speculation.enabled = false;
        cfg.seed = app_seed;
        std::string label = "N" + std::to_string(nodes_) + "/fleet" + std::to_string(k) + "/" +
                            std::string(to_string(kind));
        run_preset_op(pass, label, std::move(cfg), preset, app_seed);
      }
    }
  }

 private:
  std::uint64_t seed_;
  int nodes_;
  int fleets_;
};

}  // namespace

std::unique_ptr<Workload> make_hydra_paper(std::uint64_t seed, bool smoke) {
  return std::make_unique<HydraPaper>(seed, smoke);
}

std::unique_ptr<Workload> make_fleet_1000(std::uint64_t seed, bool smoke) {
  return std::make_unique<Fleet1000>(seed, smoke);
}

}  // namespace perfbench
