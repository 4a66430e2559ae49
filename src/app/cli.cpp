#include "app/cli.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <string_view>
#include <type_traits>

#include "common/json_reader.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "metrics/locality_counter.hpp"
#include "obs/comparator.hpp"
#include "replay/whatif.hpp"
#include "sweep/orchestrator.hpp"
#include "workloads/presets.hpp"

namespace rupam {

std::string cli_usage() {
  return "usage: rupam_sim [options]\n"
         "  --config RUN.json      load a declarative run spec (schema in DESIGN.md §14);\n"
         "                         every other flag overrides its fields\n"
         "  --workload NAME        LR|TeraSort|SQL|PR|TC|GM|KMeans (default PR)\n"
         "  --scheduler NAME       spark|rupam|stageaware|fifo|heft (default rupam)\n"
         "  --fleet PATH           JSON fleet spec: generate the cluster from node-class\n"
         "                         mixes instead of the 12-node Hydra preset (schema in\n"
         "                         DESIGN.md §9)\n"
         "  --iterations N         override the preset iteration count\n"
         "  --repetitions N        seeded repetitions, reports mean +- 95% CI\n"
         "  --seed N               base seed (default 1)\n"
         "  --sample               sample per-node utilization\n"
         "  --trace-csv PATH       dump the scheduling event trace as CSV\n"
         "  --trace-chrome PATH    dump a chrome://tracing JSON timeline\n"
         "  --trace-perfetto PATH  dump per-attempt task-phase spans (queued, shuffle\n"
         "                         read, compute, GC, spill, write) as a Perfetto trace\n"
         "  --metrics-out PATH     dump the metrics registry; '.json' writes JSON,\n"
         "                         anything else Prometheus text exposition\n"
         "  --explain PATH         record one audit row per scheduling decision\n"
         "                         (chosen node, reason, candidates); '.json' writes\n"
         "                         JSON, anything else CSV\n"
         "  --analyze PATH         post-run diagnosis JSON: per-job critical paths with\n"
         "                         phase attribution and stragglers joined to causes\n"
         "                         (enables spans/audit/trace; schema in DESIGN.md §13)\n"
         "  --analyze-k K          straggler threshold: service time > K x stage median\n"
         "                         (default 1.5)\n"
         "  --compare BASE TEST    diff two run reports (BENCH_*.json or sweep matrices)\n"
         "                         with CI-aware improved/regressed/within-noise verdicts,\n"
         "                         then exit (no simulation)\n"
         "  --compare-out PATH     write the comparison JSON here\n"
         "  --compare-strict       exit 1 when --compare finds any regression\n"
         "  --compare-tolerance F  relative significance floor for --compare (default\n"
         "                         0.02; CI wall-clock gates want a looser one)\n"
         "  --faults SPEC          inject faults, e.g. 'crash@60:node=3:down=40;\n"
         "                         slow@30:node=0:res=cpu:factor=0.3:for=60'\n"
         "  --chaos SEED           inject a seeded random fault plan\n"
         "  --sweep SPEC.json      run a parameter-sweep grid (scheduler x fleet size x\n"
         "                         arrival rate x fault plan, replicated with derived\n"
         "                         seeds) on a worker pool; writes one JSON result\n"
         "                         matrix (schema in DESIGN.md §11)\n"
         "  --sweep-threads N      sweep worker threads (default: hardware concurrency)\n"
         "  --sweep-out PATH       write the sweep matrix here instead of stdout\n"
         "  --arrivals RATE        multi-tenant mode: open-loop Poisson application\n"
         "                         arrivals at RATE apps/s (--workload restricts the\n"
         "                         mix; default draws from all of Table III)\n"
         "  --tenants N            tenant pools for --arrivals (default 2)\n"
         "  --pool-policy NAME     fifo|fair cross-job scheduling policy (default fifo)\n"
         "  --duration T           arrival generation horizon in seconds (default 600)\n"
         "  --diurnal AMP          shape --arrivals diurnally: rate follows\n"
         "                         1 + AMP*sin(2*pi*t/period), AMP in [0, 1]\n"
         "  --diurnal-period T     diurnal wave period in seconds (default 120)\n"
         "  --autoscale MAX        elastic fleet: provision up to MAX extra nodes under\n"
         "                         task-backlog pressure, drain them when idle\n"
         "  --spot-plan SPEC       spot revocations (fault-spec grammar, spot events\n"
         "                         only), e.g. 'spot@60:node=3:notice=20'\n"
         "  --preempt              fair-share preemption: kill-and-resubmit tasks of\n"
         "                         pools above their share when another pool starves\n"
         "                         (needs --pool-policy fair)\n"
         "  --checkpoint-at T      capture a checkpoint at simulated time T: replays the\n"
         "                         run deterministically to T and pins every dispatch\n"
         "                         decision made so far (format in DESIGN.md §14)\n"
         "  --checkpoint-out PATH  write the checkpoint JSON here\n"
         "  --restore PATH         restore a checkpoint: replay to its time, verify the\n"
         "                         pinned decision prefix, then run to completion; with\n"
         "                         --branch / --whatif it supplies the run spec instead\n"
         "  --branch SPEC          counterfactual branch: node:stage=S:task=T:node=N\n"
         "                         [:attempt=A], scheduler=NAME, or suppress:kind=K\n"
         "                         [:node=N] (K: crash|slow|hbdrop|degrade|spot); runs\n"
         "                         base + branch and diffs the outcomes\n"
         "  --branch-out PATH      write the branch report JSON here\n"
         "  --whatif DIAG.json     what-if advisor: take a --analyze diagnosis, replay\n"
         "                         counterfactuals for the top straggler causes, rank\n"
         "                         them by seconds of p95 JCT saved\n"
         "  --whatif-out PATH      write the ranked findings JSON here (default stdout)\n"
         "  --report-out PATH      write the run's flat outcome JSON (feeds --compare)\n"
         "  --list                 list available workloads\n"
         "  --help                 this text\n";
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::ostream& err) {
  CliOptions opts;
  RunSpec& run = opts.run;
  // --config supplies the run; it is loaded before the flag loop so every
  // other flag overrides it, wherever it sits on the command line.
  bool have_config = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--config") continue;
    if (i + 1 >= args.size()) {
      err << "missing value for --config\n";
      return std::nullopt;
    }
    if (have_config) {
      err << "--config given twice\n";
      return std::nullopt;
    }
    have_config = true;
    try {
      run = load_run_spec_file(args[i + 1]);
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return std::nullopt;
    }
  }
  // Flags that take their value verbatim (paths and spec text).
  const std::pair<std::string_view, std::string*> text_flags[] = {
      {"--faults", &run.faults},
      {"--spot-plan", &run.spot_plan},
      {"--trace-csv", &opts.trace_csv},
      {"--trace-chrome", &opts.trace_chrome},
      {"--trace-perfetto", &opts.trace_perfetto},
      {"--metrics-out", &opts.metrics_out},
      {"--explain", &opts.explain_out},
      {"--analyze", &opts.analyze_out},
      {"--compare-out", &opts.compare_out},
      {"--sweep", &opts.sweep},
      {"--sweep-out", &opts.sweep_out},
      {"--checkpoint-out", &opts.checkpoint_out},
      {"--restore", &opts.restore},
      {"--branch-out", &opts.branch_out},
      {"--whatif", &opts.whatif},
      {"--whatif-out", &opts.whatif_out},
      {"--report-out", &opts.report_out},
  };
  auto need_value = [&](std::size_t i) -> bool {
    if (i + 1 >= args.size()) {
      err << "missing value for " << args[i] << "\n";
      return false;
    }
    return true;
  };
  // Seeds parse exactly: "abc" or "-1" must not become seed 0 or 2^64-1.
  auto need_seed = [&](std::size_t& i, std::uint64_t& into) -> bool {
    if (!need_value(i)) return false;
    std::optional<std::uint64_t> seed = parse_seed(args[++i]);
    if (!seed) {
      err << args[i - 1] << " takes an integer in [0, 2^53], got '" << args[i] << "'\n";
      return false;
    }
    into = *seed;
    return true;
  };
  // So do numbers: "2x" must not run as 2, nor "inf" as a horizon that
  // never ends.
  auto need_number = [&](std::size_t& i, auto& into) -> bool {
    if (!need_value(i)) return false;
    using T = std::remove_reference_t<decltype(into)>;
    std::optional<T> value = parse_number<T>(args[++i]);
    if (!value) {
      err << args[i - 1] << " takes " << (std::is_same_v<T, int> ? "an integer" : "a finite number")
          << ", got '" << args[i] << "'\n";
      return false;
    }
    into = *value;
    return true;
  };
  // Ranges of flag-only values; RunSpec::validate below owns the run's.
  auto check = [&](bool ok, const char* message) {
    if (!ok) err << message << "\n";
    return ok;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto text = std::find_if(std::begin(text_flags), std::end(text_flags),
                             [&](const auto& flag) { return flag.first == a; });
    if (text != std::end(text_flags)) {
      if (!need_value(i)) return std::nullopt;
      *text->second = args[++i];
    } else if (a == "--help" || a == "-h") {
      opts.help = true;
    } else if (a == "--list") {
      opts.list_workloads = true;
    } else if (a == "--sample") {
      run.sample_utilization = true;
    } else if (a == "--preempt") {
      run.preempt = true;
    } else if (a == "--compare-strict") {
      opts.compare_strict = true;
    } else if (a == "--workload") {
      if (!need_value(i)) return std::nullopt;
      run.workload = args[++i];
      run.workload_explicit = true;
    } else if (a == "--fleet") {
      if (!need_value(i)) return std::nullopt;
      run.fleet = args[++i];
      run.fleet_spec.reset();  // an explicit --fleet beats a --config fleet
    } else if (a == "--scheduler") {
      if (!need_value(i)) return std::nullopt;
      auto kind = scheduler_kind_from_name(args[++i]);
      if (!kind) {
        err << "unknown scheduler '" << args[i] << "'\n";
        return std::nullopt;
      }
      run.scheduler = *kind;
    } else if (a == "--pool-policy") {
      if (!need_value(i)) return std::nullopt;
      auto policy = pool_policy_from_name(args[++i]);
      if (!policy) {
        err << "unknown pool policy '" << args[i] << "'\n";
        return std::nullopt;
      }
      run.pool_policy = *policy;
    } else if (a == "--seed") {
      if (!need_seed(i, run.seed)) return std::nullopt;
    } else if (a == "--chaos") {
      if (!need_seed(i, run.chaos_seed) ||
          !check(run.chaos_seed != 0, "chaos seed must be non-zero")) {
        return std::nullopt;
      }
    } else if (a == "--iterations") {
      if (!need_number(i, run.iterations)) return std::nullopt;
    } else if (a == "--tenants") {
      if (!need_number(i, run.tenants)) return std::nullopt;
    } else if (a == "--duration") {
      if (!need_number(i, run.duration)) return std::nullopt;
    } else if (a == "--diurnal") {
      if (!need_number(i, run.diurnal)) return std::nullopt;
    } else if (a == "--diurnal-period") {
      if (!need_number(i, run.diurnal_period)) return std::nullopt;
    } else if (a == "--arrivals") {
      if (!need_number(i, run.arrivals) || !check(run.arrivals > 0.0, "arrival rate must be > 0")) {
        return std::nullopt;
      }
    } else if (a == "--autoscale") {
      if (!need_number(i, run.autoscale) ||
          !check(run.autoscale >= 1, "autoscale max nodes must be >= 1")) {
        return std::nullopt;
      }
    } else if (a == "--repetitions") {
      if (!need_number(i, opts.repetitions) ||
          !check(opts.repetitions >= 1, "repetitions must be >= 1")) {
        return std::nullopt;
      }
    } else if (a == "--analyze-k") {
      if (!need_number(i, opts.analyze_k) ||
          !check(opts.analyze_k > 1.0, "analyze-k must be > 1")) {
        return std::nullopt;
      }
    } else if (a == "--compare-tolerance") {
      if (!need_number(i, opts.compare_tolerance) ||
          !check(opts.compare_tolerance >= 0.0,
                 "--compare-tolerance takes a non-negative fraction")) {
        return std::nullopt;
      }
    } else if (a == "--sweep-threads") {
      if (!need_number(i, opts.sweep_threads) ||
          !check(opts.sweep_threads >= 0, "sweep threads must be >= 0")) {
        return std::nullopt;
      }
    } else if (a == "--checkpoint-at") {
      if (!need_number(i, opts.checkpoint_at) ||
          !check(opts.checkpoint_at >= 0.0, "checkpoint time must be >= 0")) {
        return std::nullopt;
      }
    } else if (a == "--compare") {
      if (i + 2 >= args.size()) {
        err << "--compare takes two paths: BASE TEST\n";
        return std::nullopt;
      }
      opts.compare_base = args[++i];
      opts.compare_test = args[++i];
    } else if (a == "--branch") {
      if (!need_value(i)) return std::nullopt;
      opts.branch = args[++i];
      try {
        parse_branch_spec(opts.branch);  // fail fast on malformed specs
      } catch (const std::exception& e) {
        err << e.what() << "\n";
        return std::nullopt;
      }
    } else if (a == "--config") {
      ++i;  // loaded in the pre-pass above
    } else {
      err << "unknown argument '" << a << "'\n";
      return std::nullopt;
    }
  }
  // The run's ranges, names and fault specs: the same check --config files
  // and checkpoints pass.
  try {
    run.validate();
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return std::nullopt;
  }
  return opts;
}

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `cfg` with the sinks the output flags need. Sinks never perturb the
/// simulated event sequence, so this is the only way a CLI run's config
/// departs from make_simulation_config(run).
SimulationConfig observed(SimulationConfig cfg, const CliOptions& options) {
  cfg.enable_trace = !options.trace_csv.empty() || !options.trace_chrome.empty();
  cfg.enable_metrics = !options.metrics_out.empty();
  cfg.enable_audit = !options.explain_out.empty();
  cfg.enable_spans = !options.trace_perfetto.empty();
  if (!options.analyze_out.empty() || !options.report_out.empty()) {
    // The analyzer joins spans x audit x event trace x JCT records, so
    // --analyze (and the outcome summary behind --report-out) implies all
    // of them.
    cfg.enable_analysis = true;
    cfg.enable_spans = true;
    cfg.enable_audit = true;
    cfg.enable_trace = true;
  }
  return cfg;
}

/// Write --trace-csv / --trace-chrome for a finished run. Returns 0, or 2
/// if a path could not be opened.
int write_event_traces(Simulation& sim, const CliOptions& options, std::ostream& err) {
  if (sim.trace() == nullptr) return 0;
  if (!options.trace_csv.empty()) {
    std::ofstream f(options.trace_csv);
    if (!f) {
      err << "cannot open " << options.trace_csv << "\n";
      return 2;
    }
    sim.trace()->write_csv(f);
  }
  if (!options.trace_chrome.empty()) {
    std::ofstream f(options.trace_chrome);
    if (!f) {
      err << "cannot open " << options.trace_chrome << "\n";
      return 2;
    }
    sim.trace()->write_chrome_tracing(f);
  }
  return 0;
}

/// Write --report-out (the comparator-ready flat outcome) for a finished
/// full-observability run. Returns 0, or 2 on an unopenable path.
int write_report_out(Simulation& sim, SimTime makespan, const CliOptions& options,
                     std::ostream& err) {
  if (options.report_out.empty()) return 0;
  RunOutcome outcome = summarize_outcome(sim, makespan, options.analyze_k);
  std::ofstream f(options.report_out);
  if (!f) {
    err << "cannot open " << options.report_out << "\n";
    return 2;
  }
  f << outcome_to_json(outcome);
  return 0;
}

/// Write --metrics-out / --explain / --trace-perfetto / --analyze outputs
/// for a finished run. Returns 0, or 2 if any path could not be opened.
int write_observability(Simulation& sim, const CliOptions& options, std::ostream& out,
                        std::ostream& err) {
  auto write_to = [&err](const std::string& path, auto&& writer) -> bool {
    std::ofstream f(path);
    if (!f) {
      err << "cannot open " << path << "\n";
      return false;
    }
    writer(f);
    return true;
  };
  if (!options.metrics_out.empty() && sim.metrics() != nullptr) {
    bool ok = write_to(options.metrics_out, [&](std::ostream& f) {
      if (has_suffix(options.metrics_out, ".json")) {
        sim.metrics()->write_json(f);
      } else {
        sim.metrics()->write_prometheus(f);
      }
    });
    if (!ok) return 2;
  }
  if (!options.explain_out.empty() && sim.audit() != nullptr) {
    bool ok = write_to(options.explain_out, [&](std::ostream& f) {
      if (has_suffix(options.explain_out, ".json")) {
        sim.audit()->write_json(f);
      } else {
        sim.audit()->write_csv(f);
      }
    });
    if (!ok) return 2;
  }
  if (!options.trace_perfetto.empty() && sim.spans() != nullptr) {
    bool ok = write_to(options.trace_perfetto,
                       [&](std::ostream& f) { sim.spans()->write_perfetto(f); });
    if (!ok) return 2;
  }
  if (!options.analyze_out.empty()) {
    AnalyzerConfig acfg;
    acfg.straggler_k = options.analyze_k;
    RunDiagnosis diag = analyze_run(sim.run_artifacts(), acfg);
    bool ok = write_to(options.analyze_out,
                       [&](std::ostream& f) { write_diagnosis_json(diag, f); });
    if (!ok) return 2;
    print_diagnosis(diag, out);
  }
  return 0;
}

int run_compare_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  auto slurp = [&err](const std::string& path) {
    std::optional<std::string> text = read_text_file(path);
    if (!text) err << "cannot open " << path << "\n";
    return text;
  };
  std::optional<std::string> base = slurp(options.compare_base);
  if (!base) return 2;
  std::optional<std::string> test = slurp(options.compare_test);
  if (!test) return 2;
  ComparisonReport report;
  ComparisonConfig config;
  if (options.compare_tolerance >= 0.0) config.rel_tolerance = options.compare_tolerance;
  try {
    report = compare_json_text(*base, *test, config);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
  if (!options.compare_out.empty()) {
    std::ofstream f(options.compare_out);
    if (!f) {
      err << "cannot open " << options.compare_out << "\n";
      return 2;
    }
    write_comparison_json(report, f);
  }
  print_comparison(report, out);
  return options.compare_strict && report.has_regressions() ? 1 : 0;
}

int run_sweep_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  SweepSpec spec;
  try {
    spec = load_sweep_file(options.sweep);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }

  SweepOptions sweep_opts;
  sweep_opts.threads = options.sweep_threads;
  sweep_opts.on_progress = [&err](std::size_t done, std::size_t total) {
    err << "[sweep] " << done << "/" << total << " runs\n";
  };
  SweepMatrix matrix = run_sweep(spec, sweep_opts);

  if (options.sweep_out.empty()) {
    matrix.write_json(out);
  } else {
    std::ofstream f(options.sweep_out);
    if (!f) {
      err << "cannot open " << options.sweep_out << "\n";
      return 2;
    }
    matrix.write_json(f);
    out << "sweep '" << spec.name << "': " << matrix.cells.size() << " cells, "
        << matrix.total_runs() << " runs (" << matrix.failed_runs() << " failed) -> "
        << options.sweep_out << "\n";
  }
  return matrix.failed_runs() == 0 ? 0 : 1;
}

int run_multi_tenant(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (!options.report_out.empty()) {
    err << "--report-out is single-run only (multi-tenant runs have no flat outcome)\n";
    return 2;
  }
  const RunSpec& run = options.run;
  std::optional<Simulation> sim_storage;
  SubmissionStream stream;
  try {
    sim_storage.emplace(observed(make_simulation_config(run), options));
    ArrivalConfig arrivals;
    arrivals.rate = run.arrivals;
    arrivals.duration = run.duration;
    arrivals.tenants = run.tenants;
    arrivals.seed = run.seed;
    arrivals.iterations_override = run.iterations;
    arrivals.diurnal_amplitude = run.diurnal;
    arrivals.diurnal_period = run.diurnal_period;
    if (run.workload_explicit) arrivals.mix = {run.workload};
    stream = make_poisson_stream(arrivals, sim_storage->cluster().node_ids());
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
  if (stream.empty()) {
    err << "no arrivals drawn — raise --arrivals or --duration\n";
    return 2;
  }

  Simulation& sim = *sim_storage;
  TenantRunReport report;
  try {
    report = sim.run(stream);
  } catch (const std::exception& e) {  // run-time failure, e.g. max_sim_time
    err << e.what() << "\n";
    return 2;
  }
  out << stream.size() << " applications (" << report.jobs.size() << " jobs) under "
      << to_string(run.scheduler) << ", " << to_string(run.pool_policy)
      << " pools (arrivals=" << run.arrivals << "/s, tenants=" << run.tenants
      << ", duration=" << format_fixed(run.duration, 0) << "s)\n";
  out << "makespan: " << format_fixed(report.makespan, 1) << " s\n";
  const JctSummary& o = report.overall;
  out << "JCT: mean=" << format_fixed(o.mean, 1) << "s p50=" << format_fixed(o.p50, 1)
      << "s p95=" << format_fixed(o.p95, 1) << "s p99=" << format_fixed(o.p99, 1)
      << "s max=" << format_fixed(o.max, 1)
      << "s queueing=" << format_fixed(o.mean_queueing, 1) << "s\n";
  for (const auto& [pool, s] : report.per_pool) {
    out << "pool " << (pool.empty() ? "default" : pool) << ": jobs=" << s.count
        << " mean=" << format_fixed(s.mean, 1) << "s p95=" << format_fixed(s.p95, 1)
        << "s queueing=" << format_fixed(s.mean_queueing, 1) << "s\n";
  }
  if (run.chaos_seed != 0 || !run.faults.empty() || !run.spot_plan.empty()) {
    out << "recomputed_partitions=" << sim.recomputed_partitions() << "\n";
    if (sim.injector() != nullptr && sim.injector()->spot_revocations() > 0) {
      out << "spot_revocations=" << sim.injector()->spot_revocations() << "\n";
    }
  }
  if (sim.autoscaler() != nullptr) {
    out << "autoscale: scale_ups=" << sim.autoscaler()->scale_ups()
        << " scale_downs=" << sim.autoscaler()->scale_downs()
        << " provisioned_cost=" << format_fixed(sim.cluster().provisioned_cost(sim.sim().now()), 2)
        << "\n";
  }
  if (run.preempt) {
    out << "preemptions=" << sim.scheduler().preemptions() << "\n";
  }
  int rc = write_event_traces(sim, options, err);
  if (rc != 0) return rc;
  return write_observability(sim, options, out, err);
}

int run_checkpoint_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (options.checkpoint_out.empty()) {
    err << "--checkpoint-at needs --checkpoint-out PATH\n";
    return 2;
  }
  if (options.repetitions != 1) {
    err << "checkpointing is single-run — drop --repetitions\n";
    return 2;
  }
  try {
    Checkpoint cp = capture_checkpoint(options.run, options.checkpoint_at);
    std::ofstream f(options.checkpoint_out);
    if (!f) {
      err << "cannot open " << options.checkpoint_out << "\n";
      return 2;
    }
    f << checkpoint_to_json(cp);
    out << "checkpoint @ t=" << format_fixed(cp.time, 3) << "s: " << cp.pins.size()
        << " pinned decisions -> " << options.checkpoint_out << "\n";
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

int run_restore_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  try {
    Checkpoint cp = load_checkpoint_file(options.restore);
    ReplayRun run = restore_checkpoint(cp, observed({}, options));
    SimTime makespan = run.sim->finish();
    out << "restored " << options.restore << " @ t=" << format_fixed(cp.time, 3) << "s ("
        << cp.pins.size() << " pins verified)\n"
        << "makespan: " << format_fixed(makespan, 1) << " s\n";
    int rc = write_event_traces(*run.sim, options, err);
    if (rc != 0) return rc;
    rc = write_observability(*run.sim, options, out, err);
    if (rc != 0) return rc;
    return write_report_out(*run.sim, makespan, options, err);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

/// The RunSpec a replay mode (--branch / --whatif) operates on: the
/// checkpoint's embedded spec when --restore names one, else the flags.
RunSpec replay_run_spec(const CliOptions& options) {
  return options.restore.empty() ? options.run : load_checkpoint_file(options.restore).run;
}

int run_branch_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  try {
    BranchSpec branch = parse_branch_spec(options.branch);
    RunSpec spec = replay_run_spec(options);
    BranchReport report = run_branch(spec, branch, nullptr, options.analyze_k);
    if (!options.branch_out.empty()) {
      std::ofstream f(options.branch_out);
      if (!f) {
        err << "cannot open " << options.branch_out << "\n";
        return 2;
      }
      write_branch_report_json(report, f);
    }
    out << "branch '" << branch.label << "' vs " << report.base.scheduler << " base:\n"
        << "  p95 JCT " << format_fixed(report.base.jct.p95, 3) << "s -> "
        << format_fixed(report.branch.jct.p95, 3) << "s (saving "
        << format_fixed(report.p95_jct_saving(), 3) << "s)\n"
        << "  makespan " << format_fixed(report.base.makespan, 3) << "s -> "
        << format_fixed(report.branch.makespan, 3) << "s\n";
    print_comparison(report.comparison, out);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

int run_whatif_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  std::optional<std::string> diagnosis = read_text_file(options.whatif);
  if (!diagnosis) {
    err << "cannot open " << options.whatif << "\n";
    return 2;
  }
  try {
    std::vector<DiagnosedStraggler> stragglers = parse_diagnosis_stragglers(*diagnosis);
    RunSpec spec = replay_run_spec(options);
    WhatIfConfig wcfg;
    wcfg.analyze_k = options.analyze_k;
    wcfg.threads = options.sweep_threads;
    WhatIfReport report = advise_whatif(spec, stragglers, wcfg);
    if (!options.whatif_out.empty()) {
      std::ofstream wf(options.whatif_out);
      if (!wf) {
        err << "cannot open " << options.whatif_out << "\n";
        return 2;
      }
      write_whatif_json(report, wf);
    } else {
      write_whatif_json(report, out);
    }
    out << "what-if: base " << report.base.scheduler << " p95 JCT "
        << format_fixed(report.base.jct.p95, 3) << "s, " << stragglers.size()
        << " diagnosed stragglers, " << report.findings.size() << " counterfactuals:\n";
    for (const WhatIfFinding& finding : report.findings) {
      out << "  " << finding.branch.label << ": p95 saving "
          << format_fixed(finding.p95_jct_saving, 3) << " s (" << finding.motivation << ")\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (options.help) {
    out << cli_usage();
    return 0;
  }
  if (options.list_workloads) {
    for (const auto& p : table3_workloads()) {
      out << p.name << "\t" << p.long_name << "\t" << p.input_gb << " GB\t"
          << p.iterations << " iterations\n";
    }
    return 0;
  }
  if (!options.compare_base.empty()) {
    return run_compare_cli(options, out, err);
  }
  if (!options.sweep.empty()) {
    return run_sweep_cli(options, out, err);
  }
  if (!options.whatif.empty()) {
    return run_whatif_cli(options, out, err);
  }
  if (!options.branch.empty()) {
    return run_branch_cli(options, out, err);
  }
  if (!options.restore.empty()) {
    return run_restore_cli(options, out, err);
  }
  if (options.checkpoint_at >= 0.0) {
    return run_checkpoint_cli(options, out, err);
  }
  if (options.run.arrivals > 0.0) {
    return run_multi_tenant(options, out, err);
  }

  const RunSpec& run = options.run;
  RunningStats makespans;
  LocalityCounts locality{};
  std::size_t failures = 0, oom = 0, losses = 0, relocations = 0;
  std::size_t faults_injected = 0, blacklists = 0, recomputed = 0, spot_revocations = 0;
  double cpu = 0.0, mem = 0.0;

  for (int rep = 0; rep < options.repetitions; ++rep) {
    RunSpec spec = run;
    spec.seed += static_cast<std::uint64_t>(rep);
    // An invalid spec, or a fault plan naming nodes the cluster lacks, is
    // a CLI error, not an uncaught exception.
    std::optional<Simulation> sim_storage;
    Application app;
    try {
      sim_storage.emplace(observed(make_simulation_config(spec), options));
      app = make_run_application(spec, *sim_storage);
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return 2;
    }
    Simulation& sim = *sim_storage;
    SimTime makespan = 0.0;
    try {
      makespan = sim.run(app);
    } catch (const std::exception& e) {  // run-time failure, e.g. max_sim_time
      err << e.what() << "\n";
      return 2;
    }
    makespans.add(makespan);
    LocalityCounts counts = count_locality(sim.scheduler().completed());
    for (int l = 0; l < kNumLocalityLevels; ++l) locality[l] += counts[l];
    failures += sim.scheduler().failures().size();
    oom += sim.total_oom_kills();
    losses += sim.total_executor_losses();
    relocations += sim.scheduler().relocations();
    if (sim.injector() != nullptr) {
      faults_injected += sim.injector()->injected();
      spot_revocations += sim.injector()->spot_revocations();
    }
    blacklists += sim.scheduler().blacklist_events();
    recomputed += sim.recomputed_partitions();
    if (const UtilizationSampler* s = sim.sampler()) {
      cpu += s->avg_cpu_util();
      mem += s->avg_memory_used();
    }
    // Traces and observability exports come from the last repetition.
    if (rep == options.repetitions - 1) {
      int rc = write_event_traces(sim, options, err);
      if (rc != 0) return rc;
      rc = write_observability(sim, options, out, err);
      if (rc != 0) return rc;
      rc = write_report_out(sim, makespan, options, err);
      if (rc != 0) return rc;
    }
  }

  out << workload_preset(run.workload).long_name << " under " << to_string(run.scheduler)
      << " (" << options.repetitions << " run" << (options.repetitions > 1 ? "s" : "") << ")\n";
  out << "makespan: " << format_fixed(makespans.mean(), 1) << " s";
  if (options.repetitions > 1) {
    out << " +- " << format_fixed(confidence_interval_95(makespans.stddev(), makespans.count()), 1)
        << " (95% CI)";
  }
  out << "\nlocality: PROCESS=" << locality[0] << " NODE=" << locality[1]
      << " RACK=" << locality[2] << " ANY=" << locality[3] << "\n"
      << "failures=" << failures << " oom_kills=" << oom << " executor_losses=" << losses
      << " relocations=" << relocations << "\n";
  if (!run.faults.empty() || !run.spot_plan.empty() || run.chaos_seed != 0) {
    out << "faults_injected=" << faults_injected << " blacklists=" << blacklists
        << " recomputed_partitions=" << recomputed;
    if (!run.spot_plan.empty()) out << " spot_revocations=" << spot_revocations;
    out << "\n";
  }
  if (run.sample_utilization) {
    double n = static_cast<double>(options.repetitions);
    out << "avg cpu=" << format_fixed(cpu / n * 100.0, 1)
        << "% avg mem=" << format_fixed(mem / n / kGiB, 1) << " GB\n";
  }
  return 0;
}

}  // namespace rupam
