#include "app/cli.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
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

namespace {

/// Every rupam_sim failure is one line: parse_cli and run_cli catch this
/// (and whatever the layers below throw) and print what().
[[noreturn]] void fail(const std::string& message) { throw std::runtime_error(message); }

void require(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

/// The values one occurrence of a flag consumed.
struct FlagArgs {
  std::string_view flag;
  const std::string* values;  // as many as the flag's value names

  const std::string& operator[](std::size_t i) const { return values[i]; }

  /// Store the first value in `into` and return it. Numbers parse exactly
  /// ("2x" must not run as 2, nor "inf" as a horizon that never ends), and
  /// so do seeds, the std::uint64_t fields ("abc" or "-1" must not become
  /// seed 0 or 2^64-1).
  template <typename T>
  T read(T& into) const {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      std::optional<std::uint64_t> seed = parse_seed(values[0]);
      if (!seed) {
        fail(std::string(flag) + " takes an integer in [0, 2^53], got '" + values[0] + "'");
      }
      return into = *seed;
    } else {
      std::optional<T> value = parse_number<T>(values[0]);
      if (!value) {
        fail(std::string(flag) + " takes " +
             (std::is_same_v<T, int> ? "an integer" : "a finite number") + ", got '" + values[0] +
             "'");
      }
      return into = *value;
    }
  }
};

/// One rupam_sim flag: cli_usage() prints the first three fields and
/// parse_cli applies `set`. Range checks here cover flag-only values;
/// RunSpec::validate owns the run's.
struct Flag {
  std::string_view name;
  std::string_view value;  // one value name per value taken, space-separated
  std::string_view help;   // '\n' starts a continuation line
  void (*set)(CliOptions&, const FlagArgs&);

  std::size_t arity() const {
    if (value.empty()) return 0;
    return 1 + static_cast<std::size_t>(std::count(value.begin(), value.end(), ' '));
  }
};

using O = CliOptions;
using A = FlagArgs;

const Flag kFlags[] = {
    {"--config", "RUN.json",
     "load a declarative run spec (schema in DESIGN.md §14);\n"
     "every other flag overrides its fields",
     [](O&, const A&) {}},  // loaded by parse_cli before every other flag
    {"--workload", "NAME", "LR|TeraSort|SQL|PR|TC|GM|KMeans (default PR)",
     [](O& o, const A& v) {
       o.run.workload = v[0];
       o.run.workload_explicit = true;
     }},
    {"--scheduler", "NAME", "spark|rupam|stageaware|fifo|heft (default rupam)",
     [](O& o, const A& v) {
       std::optional<SchedulerKind> kind = scheduler_kind_from_name(v[0]);
       require(kind.has_value(), "unknown scheduler '" + v[0] + "'");
       o.run.scheduler = *kind;
     }},
    {"--fleet", "PATH",
     "JSON fleet spec: generate the cluster from node-class\n"
     "mixes instead of the 12-node Hydra preset (schema in\n"
     "DESIGN.md §9)",
     [](O& o, const A& v) {
       o.run.fleet = v[0];
       o.run.fleet_spec.reset();  // an explicit --fleet beats a --config fleet
     }},
    {"--iterations", "N", "override the preset iteration count",
     [](O& o, const A& v) { v.read(o.run.iterations); }},
    {"--repetitions", "N", "seeded repetitions, reports mean +- 95% CI",
     [](O& o, const A& v) { require(v.read(o.repetitions) >= 1, "repetitions must be >= 1"); }},
    {"--seed", "N", "base seed (default 1)", [](O& o, const A& v) { v.read(o.run.seed); }},
    {"--sample", "", "sample per-node utilization",
     [](O& o, const A&) { o.run.sample_utilization = true; }},
    {"--trace-csv", "PATH", "dump the scheduling event trace as CSV",
     [](O& o, const A& v) { o.trace_csv = v[0]; }},
    {"--trace-chrome", "PATH", "dump a chrome://tracing JSON timeline",
     [](O& o, const A& v) { o.trace_chrome = v[0]; }},
    {"--trace-perfetto", "PATH",
     "dump per-attempt task-phase spans (queued, shuffle\n"
     "read, compute, GC, spill, write) as a Perfetto trace",
     [](O& o, const A& v) { o.trace_perfetto = v[0]; }},
    {"--metrics-out", "PATH",
     "dump the metrics registry; '.json' writes JSON,\n"
     "anything else Prometheus text exposition",
     [](O& o, const A& v) { o.metrics_out = v[0]; }},
    {"--explain", "PATH",
     "record one audit row per scheduling decision\n"
     "(chosen node, reason, candidates); '.json' writes\n"
     "JSON, anything else CSV",
     [](O& o, const A& v) { o.explain_out = v[0]; }},
    {"--analyze", "PATH",
     "post-run diagnosis JSON: per-job critical paths with\n"
     "phase attribution and stragglers joined to causes\n"
     "(enables spans/audit/trace; schema in DESIGN.md §13)",
     [](O& o, const A& v) { o.analyze_out = v[0]; }},
    {"--analyze-k", "K",
     "straggler threshold: service time > K x stage median\n"
     "(default 1.5)",
     [](O& o, const A& v) { require(v.read(o.analyze_k) > 1.0, "analyze-k must be > 1"); }},
    {"--compare", "BASE TEST",
     "diff two run reports (BENCH_*.json or sweep matrices)\n"
     "with CI-aware improved/regressed/within-noise verdicts,\n"
     "then exit (no simulation)",
     [](O& o, const A& v) {
       o.compare_base = v[0];
       o.compare_test = v[1];
     }},
    {"--compare-out", "PATH", "write the comparison JSON here",
     [](O& o, const A& v) { o.compare_out = v[0]; }},
    {"--compare-strict", "", "exit 1 when --compare finds any regression",
     [](O& o, const A&) { o.compare_strict = true; }},
    {"--faults", "SPEC",
     "inject faults, e.g. 'crash@60:node=3:down=40;\n"
     "slow@30:node=0:res=cpu:factor=0.3:for=60'",
     [](O& o, const A& v) { o.run.faults = v[0]; }},
    {"--chaos", "SEED", "inject a seeded random fault plan",
     [](O& o, const A& v) {
       require(v.read(o.run.chaos_seed) != 0, "chaos seed must be non-zero");
     }},
    {"--sweep", "SPEC.json",
     "run a parameter-sweep grid (scheduler x fleet size x\n"
     "arrival rate x fault plan, replicated with derived\n"
     "seeds) on a worker pool; writes one JSON result\n"
     "matrix (schema in DESIGN.md §11)",
     [](O& o, const A& v) { o.sweep = v[0]; }},
    {"--sweep-threads", "N", "sweep worker threads (default: hardware concurrency)",
     [](O& o, const A& v) { require(v.read(o.sweep_threads) >= 0, "sweep threads must be >= 0"); }},
    {"--sweep-out", "PATH", "write the sweep matrix here instead of stdout",
     [](O& o, const A& v) { o.sweep_out = v[0]; }},
    {"--arrivals", "RATE",
     "multi-tenant mode: open-loop Poisson application\n"
     "arrivals at RATE apps/s (--workload restricts the\n"
     "mix; default draws from all of Table III)",
     [](O& o, const A& v) { require(v.read(o.run.arrivals) > 0.0, "arrival rate must be > 0"); }},
    {"--tenants", "N", "tenant pools for --arrivals (default 2)",
     [](O& o, const A& v) { v.read(o.run.tenants); }},
    {"--pool-policy", "NAME", "fifo|fair cross-job scheduling policy (default fifo)",
     [](O& o, const A& v) {
       std::optional<PoolPolicy> policy = pool_policy_from_name(v[0]);
       require(policy.has_value(), "unknown pool policy '" + v[0] + "'");
       o.run.pool_policy = *policy;
     }},
    {"--duration", "T", "arrival generation horizon in seconds (default 600)",
     [](O& o, const A& v) { v.read(o.run.duration); }},
    {"--diurnal", "AMP",
     "shape --arrivals diurnally: rate follows\n"
     "1 + AMP*sin(2*pi*t/period), AMP in [0, 1]",
     [](O& o, const A& v) { v.read(o.run.diurnal); }},
    {"--diurnal-period", "T", "diurnal wave period in seconds (default 120)",
     [](O& o, const A& v) { v.read(o.run.diurnal_period); }},
    {"--autoscale", "MAX",
     "elastic fleet: provision up to MAX extra nodes under\n"
     "task-backlog pressure, drain them when idle",
     [](O& o, const A& v) {
       require(v.read(o.run.autoscale) >= 1, "autoscale max nodes must be >= 1");
     }},
    {"--spot-plan", "SPEC",
     "spot revocations (fault-spec grammar, spot events\n"
     "only), e.g. 'spot@60:node=3:notice=20'",
     [](O& o, const A& v) { o.run.spot_plan = v[0]; }},
    {"--preempt", "",
     "fair-share preemption: kill-and-resubmit tasks of\n"
     "pools above their share when another pool starves\n"
     "(needs --pool-policy fair)",
     [](O& o, const A&) { o.run.preempt = true; }},
    {"--checkpoint-at", "T",
     "capture a checkpoint at simulated time T: replays the\n"
     "run deterministically to T and pins every dispatch\n"
     "decision made so far (format in DESIGN.md §14)",
     [](O& o, const A& v) {
       require(v.read(o.checkpoint_at) >= 0.0, "checkpoint time must be >= 0");
     }},
    {"--checkpoint-out", "PATH", "write the checkpoint JSON here",
     [](O& o, const A& v) { o.checkpoint_out = v[0]; }},
    {"--restore", "PATH",
     "restore a checkpoint: replay to its time, verify the\n"
     "pinned decision prefix, then run to completion; with\n"
     "--branch / --whatif it supplies the run spec instead",
     [](O& o, const A& v) { o.restore = v[0]; }},
    {"--branch", "SPEC",
     "counterfactual branch: node:stage=S:task=T:node=N\n"
     "[:attempt=A], scheduler=NAME, or suppress:kind=K\n"
     "[:node=N] (K: crash|slow|hbdrop|degrade|spot); runs\n"
     "base + branch and diffs the outcomes",
     [](O& o, const A& v) {
       o.branch = v[0];
       parse_branch_spec(o.branch);  // fail fast on malformed specs
     }},
    {"--branch-out", "PATH", "write the branch report JSON here",
     [](O& o, const A& v) { o.branch_out = v[0]; }},
    {"--whatif", "DIAG.json",
     "what-if advisor: take a --analyze diagnosis, replay\n"
     "counterfactuals for the top straggler causes, rank\n"
     "them by seconds of p95 JCT saved",
     [](O& o, const A& v) { o.whatif = v[0]; }},
    {"--whatif-out", "PATH", "write the ranked findings JSON here (default stdout)",
     [](O& o, const A& v) { o.whatif_out = v[0]; }},
    {"--report-out", "PATH", "write the run's flat outcome JSON (feeds --compare)",
     [](O& o, const A& v) { o.report_out = v[0]; }},
    {"--list", "", "list available workloads", [](O& o, const A&) { o.list_workloads = true; }},
    {"--help", "", "this text", [](O& o, const A&) { o.help = true; }},
};

}  // namespace

std::string cli_usage() {
  constexpr std::size_t kHelpColumn = 25;
  std::string usage = "usage: rupam_sim [options]\n";
  for (const Flag& flag : kFlags) {
    std::string line("  ");
    line.append(flag.name);
    if (!flag.value.empty()) line.append(" ").append(flag.value);
    line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
    for (char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    usage += line + "\n";
  }
  return usage;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::ostream& err) {
  CliOptions opts;
  try {
    // --config supplies the run; it is loaded before the flag loop so every
    // other flag overrides it, wherever it sits on the command line.
    bool have_config = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] != "--config") continue;
      require(i + 1 < args.size(), "missing value for --config");
      require(!have_config, "--config given twice");
      have_config = true;
      opts.run = load_run_spec_file(args[i + 1]);
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string_view name = args[i] == "-h" ? std::string_view("--help") : args[i];
      const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                      [&](const Flag& f) { return f.name == name; });
      if (flag == std::end(kFlags)) fail("unknown argument '" + args[i] + "'");
      const std::size_t arity = flag->arity();
      if (i + arity >= args.size()) {
        fail(arity == 1 ? "missing value for " + args[i]
                        : args[i] + " takes two paths: " + std::string(flag->value));
      }
      flag->set(opts, FlagArgs{flag->name, args.data() + i + 1});
      i += arity;
    }
    // The run's ranges, names and fault specs: the same check --config
    // files and checkpoints pass.
    opts.run.validate();
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

/// Fail before any run if an output path the flags name cannot be opened.
/// Append mode creates a missing file and truncates nothing, so a path
/// that is also an input is still read intact.
void check_outputs(const CliOptions& o) {
  for (const std::string* path :
       {&o.trace_csv, &o.trace_chrome, &o.trace_perfetto, &o.metrics_out, &o.explain_out,
        &o.analyze_out, &o.compare_out, &o.sweep_out, &o.checkpoint_out, &o.branch_out,
        &o.whatif_out, &o.report_out}) {
    if (!path->empty() && !std::ofstream(*path, std::ios::app)) fail("cannot open " + *path);
  }
}

/// Every output file opens here; an empty path asks for no file.
template <typename Writer>
void write_file(const std::string& path, Writer&& writer) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) fail("cannot open " + path);
  writer(f);
}

std::string read_file(const std::string& path) {
  std::optional<std::string> text = read_text_file(path);
  if (!text) fail("cannot open " + path);
  return *text;
}

/// Write every output file a finished run asks for, in this order: event
/// traces, metrics, audit, spans, diagnosis (also printed), flat outcome.
/// observed() switched on the sink behind each path that is set.
void write_outputs(Simulation& sim, SimTime makespan, const CliOptions& options,
                   std::ostream& out) {
  write_file(options.trace_csv, [&](std::ostream& f) { sim.trace()->write_csv(f); });
  write_file(options.trace_chrome, [&](std::ostream& f) { sim.trace()->write_chrome_tracing(f); });
  write_file(options.metrics_out, [&](std::ostream& f) {
    if (has_suffix(options.metrics_out, ".json")) {
      sim.metrics()->write_json(f);
    } else {
      sim.metrics()->write_prometheus(f);
    }
  });
  write_file(options.explain_out, [&](std::ostream& f) {
    if (has_suffix(options.explain_out, ".json")) {
      sim.audit()->write_json(f);
    } else {
      sim.audit()->write_csv(f);
    }
  });
  write_file(options.trace_perfetto, [&](std::ostream& f) { sim.spans()->write_perfetto(f); });
  if (!options.analyze_out.empty()) {
    AnalyzerConfig acfg;
    acfg.straggler_k = options.analyze_k;
    RunDiagnosis diag = analyze_run(sim.run_artifacts(), acfg);
    write_file(options.analyze_out, [&](std::ostream& f) { write_diagnosis_json(diag, f); });
    print_diagnosis(diag, out);
  }
  write_file(options.report_out, [&](std::ostream& f) {
    f << outcome_to_json(summarize_outcome(sim, makespan, options.analyze_k));
  });
}

int run_compare_cli(const CliOptions& options, std::ostream& out) {
  const std::string base = read_file(options.compare_base);
  const std::string test = read_file(options.compare_test);
  ComparisonReport report = compare_json_text(base, test);
  write_file(options.compare_out, [&](std::ostream& f) { write_comparison_json(report, f); });
  print_comparison(report, out);
  return options.compare_strict && report.has_regressions() ? 1 : 0;
}

int run_sweep_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  SweepSpec spec = load_sweep_file(options.sweep);
  SweepOptions sweep_opts;
  sweep_opts.threads = options.sweep_threads;
  sweep_opts.on_log = [&err](const std::string& lines) { err << lines; };
  sweep_opts.on_progress = [&err](std::size_t done, std::size_t total) {
    err << "[sweep] " << done << "/" << total << " runs\n";
  };
  SweepMatrix matrix = run_sweep(spec, sweep_opts);

  if (options.sweep_out.empty()) {
    matrix.write_json(out);
  } else {
    write_file(options.sweep_out, [&](std::ostream& f) { matrix.write_json(f); });
    out << "sweep '" << spec.name << "': " << matrix.cells.size() << " cells, "
        << matrix.total_runs() << " runs (" << matrix.failed_runs() << " failed) -> "
        << options.sweep_out << "\n";
  }
  return matrix.failed_runs() == 0 ? 0 : 1;
}

void run_multi_tenant(const CliOptions& options, std::ostream& out) {
  require(options.report_out.empty(),
          "--report-out is single-run only (multi-tenant runs have no flat outcome)");
  const RunSpec& run = options.run;
  Simulation sim(observed(make_simulation_config(run), options));
  ArrivalConfig arrivals;
  arrivals.rate = run.arrivals;
  arrivals.duration = run.duration;
  arrivals.tenants = run.tenants;
  arrivals.seed = run.seed;
  arrivals.iterations_override = run.iterations;
  arrivals.diurnal_amplitude = run.diurnal;
  arrivals.diurnal_period = run.diurnal_period;
  if (run.workload_explicit) arrivals.mix = {run.workload};
  SubmissionStream stream = make_poisson_stream(arrivals, sim.cluster().node_ids());
  require(!stream.empty(), "no arrivals drawn — raise --arrivals or --duration");

  TenantRunReport report = sim.run(stream);
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
  write_outputs(sim, report.makespan, options, out);
}

void run_checkpoint_cli(const CliOptions& options, std::ostream& out) {
  require(!options.checkpoint_out.empty(), "--checkpoint-at needs --checkpoint-out PATH");
  require(options.repetitions == 1, "checkpointing is single-run — drop --repetitions");
  Checkpoint cp = capture_checkpoint(options.run, options.checkpoint_at);
  write_file(options.checkpoint_out, [&](std::ostream& f) { f << checkpoint_to_json(cp); });
  out << "checkpoint @ t=" << format_fixed(cp.time, 3) << "s: " << cp.pins.size()
      << " pinned decisions -> " << options.checkpoint_out << "\n";
}

void run_restore_cli(const CliOptions& options, std::ostream& out) {
  Checkpoint cp = load_checkpoint_file(options.restore);
  ReplayRun run = restore_checkpoint(cp, observed({}, options));
  SimTime makespan = run.sim->finish();
  out << "restored " << options.restore << " @ t=" << format_fixed(cp.time, 3) << "s ("
      << cp.pins.size() << " pins verified)\n"
      << "makespan: " << format_fixed(makespan, 1) << " s\n";
  write_outputs(*run.sim, makespan, options, out);
}

/// The RunSpec a replay mode (--branch / --whatif) operates on: the
/// checkpoint's embedded spec when --restore names one, else the flags.
RunSpec replay_run_spec(const CliOptions& options) {
  return options.restore.empty() ? options.run : load_checkpoint_file(options.restore).run;
}

void run_branch_cli(const CliOptions& options, std::ostream& out) {
  BranchSpec branch = parse_branch_spec(options.branch);
  BranchReport report = run_branch(replay_run_spec(options), branch, nullptr, options.analyze_k);
  write_file(options.branch_out, [&](std::ostream& f) { write_branch_report_json(report, f); });
  out << "branch '" << branch.label << "' vs " << report.base.scheduler << " base:\n"
      << "  p95 JCT " << format_fixed(report.base.jct.p95, 3) << "s -> "
      << format_fixed(report.branch.jct.p95, 3) << "s (saving "
      << format_fixed(report.p95_jct_saving(), 3) << "s)\n"
      << "  makespan " << format_fixed(report.base.makespan, 3) << "s -> "
      << format_fixed(report.branch.makespan, 3) << "s\n";
  print_comparison(report.comparison, out);
}

void run_whatif_cli(const CliOptions& options, std::ostream& out) {
  std::vector<DiagnosedStraggler> stragglers =
      parse_diagnosis_stragglers(read_file(options.whatif));
  WhatIfConfig wcfg;
  wcfg.analyze_k = options.analyze_k;
  wcfg.threads = options.sweep_threads;
  WhatIfReport report = advise_whatif(replay_run_spec(options), stragglers, wcfg);
  if (options.whatif_out.empty()) {
    write_whatif_json(report, out);
  } else {
    write_file(options.whatif_out, [&](std::ostream& f) { write_whatif_json(report, f); });
  }
  out << "what-if: base " << report.base.scheduler << " p95 JCT "
      << format_fixed(report.base.jct.p95, 3) << "s, " << stragglers.size()
      << " diagnosed stragglers, " << report.findings.size() << " counterfactuals:\n";
  for (const WhatIfFinding& finding : report.findings) {
    out << "  " << finding.branch.label << ": p95 saving "
        << format_fixed(finding.p95_jct_saving, 3) << " s (" << finding.motivation << ")\n";
  }
}

void run_single_cli(const CliOptions& options, std::ostream& out) {
  const RunSpec& run = options.run;
  RunningStats makespans;
  LocalityCounts locality{};
  std::size_t failures = 0, oom = 0, losses = 0, relocations = 0;
  std::size_t faults_injected = 0, blacklists = 0, recomputed = 0, spot_revocations = 0;
  double cpu = 0.0, mem = 0.0;

  for (int rep = 0; rep < options.repetitions; ++rep) {
    RunSpec spec = run;
    spec.seed += static_cast<std::uint64_t>(rep);
    Simulation sim(observed(make_simulation_config(spec), options));
    Application app = make_run_application(spec, sim);
    SimTime makespan = sim.run(app);
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
    // Output files come from the last repetition.
    if (rep == options.repetitions - 1) write_outputs(sim, makespan, options, out);
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
}

}  // namespace

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  // The one exit-2 path: an invalid spec, a fault plan naming nodes the
  // cluster lacks, an unopenable file or a run-time failure (e.g.
  // max_sim_time) ends the mode with one stderr line.
  try {
    if (options.help) {
      out << cli_usage();
      return 0;
    }
    if (options.list_workloads) {
      for (const auto& p : table3_workloads()) {
        out << p.name << "\t" << p.long_name << "\t" << p.input_gb << " GB\t" << p.iterations
            << " iterations\n";
      }
      return 0;
    }
    check_outputs(options);
    if (!options.compare_base.empty()) {
      return run_compare_cli(options, out);
    } else if (!options.sweep.empty()) {
      return run_sweep_cli(options, out, err);
    } else if (!options.whatif.empty()) {
      run_whatif_cli(options, out);
    } else if (!options.branch.empty()) {
      run_branch_cli(options, out);
    } else if (!options.restore.empty()) {
      run_restore_cli(options, out);
    } else if (options.checkpoint_at >= 0.0) {
      run_checkpoint_cli(options, out);
    } else if (options.run.arrivals > 0.0) {
      run_multi_tenant(options, out);
    } else {
      run_single_cli(options, out);
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

}  // namespace rupam
