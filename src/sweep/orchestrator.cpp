#include "sweep/orchestrator.hpp"

#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>

#include "app/simulation.hpp"
#include "common/json_writer.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "faults/fault_plan.hpp"
#include "sweep/work_queue.hpp"

namespace rupam {

MetricAggregate aggregate_metric(const std::vector<double>& values) {
  MetricAggregate agg;
  RunningStats stats;
  for (double v : values) stats.add(v);
  agg.n = stats.count();
  agg.mean = stats.mean();
  agg.ci95 = confidence_interval_95(stats.stddev(), stats.count());
  agg.min = stats.min();
  agg.max = stats.max();
  return agg;
}

void CellResult::aggregate() {
  failed = 0;
  std::vector<double> makespans, means, p50s, p95s, utils;
  makespans.reserve(reps.size());
  for (const RunResult& r : reps) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    makespans.push_back(r.makespan);
    means.push_back(r.mean_jct);
    p50s.push_back(r.p50_jct);
    p95s.push_back(r.p95_jct);
    utils.push_back(r.avg_cpu_util);
  }
  makespan = aggregate_metric(makespans);
  mean_jct = aggregate_metric(means);
  p50_jct = aggregate_metric(p50s);
  p95_jct = aggregate_metric(p95s);
  utilization = aggregate_metric(utils);

  analyzed = false;
  analyzer = AnalyzerSummary{};
  std::size_t analyzed_reps = 0;
  for (const RunResult& r : reps) {
    if (!r.ok || !r.analyzed) continue;
    analyzed = true;
    ++analyzed_reps;
    analyzer.stragglers += r.analyzer.stragglers;
    for (std::size_t c = 0; c < analyzer.by_cause.size(); ++c) {
      analyzer.by_cause[c] += r.analyzer.by_cause[c];
    }
    analyzer.critical_path += r.analyzer.critical_path;
  }
  if (analyzed_reps > 1) {
    // Counts stay summed; the attribution reads best as a per-run mean.
    double n = static_cast<double>(analyzed_reps);
    PhaseAttribution& a = analyzer.critical_path;
    a.queueing /= n;
    a.input_read /= n;
    a.shuffle_read /= n;
    a.compute /= n;
    a.gc /= n;
    a.shuffle_write /= n;
    a.spill /= n;
    a.output_send /= n;
    a.driver /= n;
  }
}

std::size_t SweepMatrix::total_runs() const {
  std::size_t n = 0;
  for (const CellResult& c : cells) n += c.reps.size();
  return n;
}

std::size_t SweepMatrix::failed_runs() const {
  std::size_t n = 0;
  for (const CellResult& c : cells) n += c.failed;
  return n;
}

KernelStats SweepMatrix::kernel_total() const {
  KernelStats total;
  for (const CellResult& c : cells) {
    for (const RunResult& r : c.reps) total += r.kernel;
  }
  return total;
}

RunResult run_sweep_cell(const SweepSpec& spec, const CellCoord& cell, int replication,
                         std::uint64_t seed) {
  RunResult r;
  r.seed = seed;
  r.replication = replication;

  SimulationConfig cfg;
  cfg.scheduler = spec.schedulers.at(cell.scheduler);
  FleetSpec fleet = sweep_fleet_spec(spec.fleet_sizes.at(cell.fleet), spec.base_seed);
  cfg.nodes = generate_fleet(fleet);
  if (fleet.switch_bandwidth > 0.0) cfg.switch_bandwidth = fleet.switch_bandwidth;
  cfg.pools.policy = spec.pool_policy;
  cfg.sample_utilization = spec.sample_utilization;
  const std::string& plan = spec.fault_plans.at(cell.fault);
  if (!plan.empty()) cfg.faults = parse_fault_spec(plan);
  const std::string& elastic = spec.elastic_modes.at(cell.elastic);
  bool autoscale = false, preempt = false;
  parse_elastic_mode(elastic, autoscale, preempt);  // validated by the spec
  cfg.autoscale.enabled = autoscale;
  cfg.preemption.enabled = preempt;
  if (spec.analyze) {
    cfg.enable_analysis = true;
    cfg.enable_spans = true;
    cfg.enable_audit = true;
    cfg.enable_trace = true;
  }
  cfg.seed = seed;

  ArrivalConfig arrivals;
  arrivals.rate = spec.arrival_rates.at(cell.rate);
  arrivals.duration = spec.duration;
  arrivals.tenants = spec.tenants;
  arrivals.seed = seed;
  arrivals.iterations_override = spec.iterations_override;
  arrivals.mix = spec.mix;
  arrivals.max_apps = spec.max_apps;

  Simulation sim(cfg);
  SubmissionStream stream = make_poisson_stream(arrivals, sim.cluster().node_ids());
  r.apps = stream.size();
  if (!stream.empty()) {
    TenantRunReport report = sim.run(stream);
    r.makespan = report.makespan;
    r.jobs = report.jobs.size();
    r.mean_jct = report.overall.mean;
    r.p50_jct = report.overall.p50;
    r.p95_jct = report.overall.p95;
    r.p99_jct = report.overall.p99;
    r.mean_queueing = report.overall.mean_queueing;
    if (sim.sampler() != nullptr) r.avg_cpu_util = sim.sampler()->avg_cpu_util();
    if (spec.analyze) {
      r.analyzer = summarize_diagnosis(analyze_run(sim.run_artifacts()));
      r.analyzed = true;
    }
  }
  r.kernel = sim.sim().stats();
  r.ok = true;
  return r;
}

SweepMatrix run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  spec.validate();

  SweepMatrix matrix;
  matrix.spec = spec;
  matrix.cells.resize(spec.cell_count());
  const std::size_t total = spec.total_runs();
  const auto reps = static_cast<std::size_t>(spec.replications);
  for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
    matrix.cells[i].coord = spec.cell_at(i);
    matrix.cells[i].reps.resize(reps);
  }
  if (total == 0) return matrix;

  auto runner = options.runner
                    ? options.runner
                    : std::function<RunResult(const SweepSpec&, const CellCoord&, int,
                                              std::uint64_t)>(run_sweep_cell);

  std::mutex progress_mutex;
  std::vector<std::string> logs(total);  // each run's captured log lines
  std::vector<char> finished(total, 0);
  std::size_t released = 0;
  // Run i is (cell i / reps, replication i % reps): cell-major order.
  parallel_for(total, options.threads, [&](std::size_t i) {
    CellResult& cell = matrix.cells[i / reps];
    const int replication = static_cast<int>(i % reps);
    // Each (cell, replication) slot is written by exactly one worker —
    // results are disjoint, so no lock is needed around the write.
    RunResult& slot = cell.reps[i % reps];
    std::uint64_t seed = derive_run_seed(spec, cell.coord, replication);
    std::optional<std::string> error;  // set iff the run did not complete
    if (options.controller != nullptr && options.controller->stop_requested()) {
      error = "cancelled";
    } else {
      LogCapture capture(logs[i]);
      try {
        slot = runner(spec, cell.coord, replication, seed);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown error";
      }
    }
    if (error) {
      slot = RunResult{};
      slot.error = *error;
      slot.seed = seed;
      slot.replication = replication;
    }
    std::lock_guard<std::mutex> lock(progress_mutex);
    finished[i] = 1;
    while (released < total && finished[released] != 0) {
      std::string& lines = logs[released];
      if (options.on_log) {
        if (!lines.empty()) options.on_log(lines);
      } else {
        std::fputs(lines.c_str(), stderr);
      }
      std::string().swap(lines);
      ++released;
      if (options.on_progress) options.on_progress(released, total);
    }
  });

  // Aggregation runs single-threaded after the join, in grid order — the
  // matrix (and its JSON) is independent of which worker ran which cell.
  for (CellResult& cell : matrix.cells) cell.aggregate();
  return matrix;
}

namespace {

void write_aggregate(JsonWriter& w, const char* name, const MetricAggregate& agg) {
  w.key(name).begin_object();
  w.key("n").value(static_cast<unsigned long long>(agg.n));
  w.key("mean").value(agg.mean);
  w.key("ci95").value(agg.ci95);
  w.key("min").value(agg.min);
  w.key("max").value(agg.max);
  w.end_object();
}

}  // namespace

void SweepMatrix::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("base_seed").value(static_cast<unsigned long long>(spec.base_seed));
  w.key("replications").value(spec.replications);
  w.key("duration").value(spec.duration);
  w.key("tenants").value(spec.tenants);
  w.key("pool_policy").value(pool_policy_name(spec.pool_policy));
  w.key("total_runs").value(static_cast<unsigned long long>(total_runs()));
  w.key("failed_runs").value(static_cast<unsigned long long>(failed_runs()));
  w.key("cells").begin_array();
  for (const CellResult& cell : cells) {
    w.begin_object();
    w.key("scheduler").value(scheduler_cli_name(spec.schedulers.at(cell.coord.scheduler)));
    w.key("fleet_size").value(spec.fleet_sizes.at(cell.coord.fleet));
    w.key("arrival_rate").value(spec.arrival_rates.at(cell.coord.rate));
    w.key("fault_plan").value(spec.fault_plans.at(cell.coord.fault));
    w.key("elastic").value(spec.elastic_modes.at(cell.coord.elastic));
    w.key("failed").value(static_cast<unsigned long long>(cell.failed));
    w.key("runs").begin_array();
    for (const RunResult& r : cell.reps) {
      w.begin_object();
      w.key("replication").value(r.replication);
      w.key("seed").value(static_cast<unsigned long long>(r.seed));
      w.key("ok").value(r.ok);
      if (!r.ok) {
        w.key("error").value(r.error);
      } else {
        w.key("apps").value(static_cast<unsigned long long>(r.apps));
        w.key("jobs").value(static_cast<unsigned long long>(r.jobs));
        w.key("makespan_s").value(r.makespan);
        w.key("mean_jct_s").value(r.mean_jct);
        w.key("p50_jct_s").value(r.p50_jct);
        w.key("p95_jct_s").value(r.p95_jct);
        w.key("p99_jct_s").value(r.p99_jct);
        w.key("mean_queueing_s").value(r.mean_queueing);
        w.key("avg_cpu_util").value(r.avg_cpu_util);
        if (r.analyzed) {
          w.key("analyzer");
          write_analyzer_summary_json(r.analyzer, w);
        }
      }
      w.end_object();
    }
    w.end_array();
    write_aggregate(w, "makespan_s", cell.makespan);
    write_aggregate(w, "mean_jct_s", cell.mean_jct);
    write_aggregate(w, "p50_jct_s", cell.p50_jct);
    write_aggregate(w, "p95_jct_s", cell.p95_jct);
    write_aggregate(w, "avg_cpu_util", cell.utilization);
    if (cell.analyzed) {
      w.key("analyzer");
      write_analyzer_summary_json(cell.analyzer, w);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

std::string SweepMatrix::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace rupam
