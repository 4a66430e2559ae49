// perfbench entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Run from the repository root (perfbench/run.py builds this binary and
// forwards its arguments). Whole passes of the workload repeat until
// --seconds have elapsed and the workload's minimum operation count is
// reached. Every pass repeats the same seeded inputs, so every pass must
// reproduce the first pass's simulated outputs exactly.
//
// --trace 0: passes run as the workload specifies; prints the end-to-end
//   metrics. --trace 1: untraced and traced passes alternate; traced
//   passes attach an OverheadProfiler, count allocations and record spans;
//   prints the per-layer metrics. --smoke: shrunken inputs, one pass.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/log.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Digests, span traces and the per-run scratch directory go here.
constexpr const char* kOutDir = ".bench_out";

/// Passes stop early past this host time, so a run always ends well
/// inside its 180-second limit.
constexpr double kHardStopSeconds = 120.0;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload hydra_paper|fleet_1000|tenant_sweep|"
               "diagnose_replay --seed N --seconds S --trace 0|1 [--smoke]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      if (flag == "--workload") {
        args.workload = value(i);
      } else if (flag == "--seed") {
        args.seed = std::stoull(value(i));
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value(i));
      } else if (flag == "--trace") {
        std::string v = value(i);
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else {
        usage("unknown argument " + flag);
      }
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args, const std::string& scratch) {
  if (args.workload == "hydra_paper") return make_hydra_paper(args.seed, args.smoke);
  if (args.workload == "fleet_1000") return make_fleet_1000(args.seed, args.smoke);
  if (args.workload == "tenant_sweep") {
    // Two workers, or one on a single-core host.
    const int workers = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
    return make_tenant_sweep(args.seed, args.smoke, workers, scratch);
  }
  if (args.workload == "diagnose_replay") {
    return make_diagnose_replay(args.seed, args.smoke, scratch);
  }
  usage("unknown workload '" + args.workload + "'");
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Span durations and self times (duration minus child spans) by name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

void add_span_totals(const std::vector<Span>& spans, double factor,
                     std::map<std::string, SpanTotals>& out) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[std::string(spans[i].name)];
    double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.count += 1;
    t.total_ns += d * factor;
    t.self_ns += (d - child_ns[i]) * factor;
  }
}

/// Chrome trace-event JSON of every recorded span (one pid per pass).
void write_spans(const std::string& path, const std::vector<const Pass*>& traced) {
  std::ofstream os(path);
  os << "[";
  bool first = true;
  int pid = 0;
  for (const Pass* pass : traced) {
    for (const std::vector<Span>* log : {&pass->span_log.spans(), &pass->worker_spans}) {
      for (const Span& s : *log) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":"
           << pid << ",\"tid\":" << s.run << ",\"ts\":" << exact(s.start_ns / 1e3)
           << ",\"dur\":" << exact((s.end_ns - s.start_ns) / 1e3)
           << ",\"args\":{\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
        first = false;
      }
    }
    ++pid;
  }
  os << "\n]\n";
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Simulated outputs of the first pass (every pass repeats them exactly).
std::vector<Metric> simulated(const Workload& w, const Pass& first) {
  return {
      {"sim.makespan_s", geomean(first.makespans), "sim-s"},
      {"sim.jct_p95_s", w.jct_p95(first), "sim-s"},
      {"sim.rupam_speedup", ratio(geomean(first.spark_makespans), geomean(first.rupam_makespans)),
       "x"},
  };
}

/// End-to-end metrics; `f` scales host times to reference speed.
std::vector<Metric> end_to_end(const Workload& w, const std::vector<const Pass*>& passes,
                               double f) {
  std::vector<double> setups, ops;
  double sim_s = 0.0, loop_s = 0.0;
  for (const Pass* p : passes) {
    setups.push_back(p->setup_s * f);
    for (double ms : p->op_ms) ops.push_back(ms * f);
    sim_s += p->sim_s;
    loop_s += p->loop_s * f;
  }
  std::cout << "run_ms_tail is p" << w.tail_pct << " of n=" << ops.size() << " operations\n";
  return {
      {"setup_s", percentile(setups, 50), "s"},
      {"sim_s_per_host_s", ratio(sim_s, loop_s), "sim-s/host-s"},
      {"run_ms_p50", percentile(ops, 50), "ms"},
      {"run_ms_tail", percentile(ops, w.tail_pct), "ms"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Per-layer metrics over the traced passes; `f` as in end_to_end.
std::vector<Metric> per_layer(const Workload& w, const std::vector<const Pass*>& traced,
                              const std::vector<const Pass*>& untraced, double f) {
  LayerStats L;
  std::map<std::string, SpanTotals> spans;
  std::vector<double> traced_walls, untraced_walls, cell_ms;
  double sweep_wall = 0.0, cell_wall = 0.0, workers = 0.0, record_on = 0.0, record_off = 0.0;
  double export_bytes = 0.0, restore = 0.0, straight = 0.0, failed_cells = 0.0;
  for (const Pass* p : traced) {
    L += p->layers;
    add_span_totals(p->span_log.spans(), f, spans);
    add_span_totals(p->worker_spans, f, spans);
    traced_walls.push_back(p->wall_s);
    for (double ms : p->cell_ms) cell_ms.push_back(ms * f);
    sweep_wall += p->sweep_wall_s * f;
    cell_wall += p->sweep_cell_wall_s * f;
    workers = std::max(workers, p->sweep_workers);
    record_on += p->record_on_s;
    record_off += p->record_off_s;
    export_bytes += p->export_bytes;
    restore += p->restore_s;
    straight += p->straight_s;
    failed_cells += static_cast<double>(p->sweep_failed_cells);
  }
  L.scale_time(f);
  for (const Pass* p : untraced) untraced_walls.push_back(p->wall_s);
  const double n = static_cast<double>(traced.size());
  auto per_pass = [n](double v) { return v / n; };
  auto mean_ms = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ns / 1e6 / it->second.count;
  };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double rounds = d(L.dispatch_rounds);
  const double attributed = L.dispatch_ns + L.heartbeat_ns + L.enqueue_ns;

  // Self time per layer: spans grouped by the prefix before the first dot.
  std::map<std::string, double> self_ms = {{"app", 0},     {"bench", 0}, {"cluster", 0},
                                           {"obs", 0},     {"replay", 0}, {"sweep", 0},
                                           {"workloads", 0}};
  std::cout << "span self time per pass (ms):\n";
  for (const auto& [name, t] : spans) {
    std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += per_pass(t.self_ns) / 1e6;
    std::cout << "  " << std::left << std::setw(28) << name << " n=" << std::setw(6)
              << per_pass(static_cast<double>(t.count)) << " self=" << per_pass(t.self_ns) / 1e6
              << "\n";
  }
  std::cout << "profiler sections per pass (ms): dispatch=" << per_pass(L.dispatch_ns) / 1e6
            << " heap=" << per_pass(L.heap_ns) / 1e6
            << " heartbeat=" << per_pass(L.heartbeat_ns) / 1e6
            << " enqueue=" << per_pass(L.enqueue_ns) / 1e6
            << " run-loop=" << per_pass(L.loop_ns) / 1e6 << "\n";

  std::vector<Metric> m = {
      {"simcore.events", per_pass(d(L.events)), "count"},
      {"simcore.events_per_host_s", ratio(d(L.events), L.loop_ns / 1e9), "1/s"},
      {"simcore.cancel_ratio", ratio(d(L.cancelled), d(L.scheduled)), "ratio"},
      {"simcore.arena_allocs_per_event", ratio(d(L.arena_allocs), d(L.events)), "ratio"},
      {"simcore.callback_heap_allocs", per_pass(d(L.callback_heap_allocs)), "count"},
      {"simcore.peak_queue", d(L.peak_queue), "count"},
      {"simcore.allocs_per_event", ratio(d(L.loop_allocs), d(L.events)), "ratio"},
      {"sched.dispatch_rounds", per_pass(rounds), "count"},
      {"sched.launch_round_ratio", ratio(d(L.launch_rounds), d(L.alloc_rounds)), "ratio"},
      {"sched.node_visits_per_round", ratio(d(L.node_visits), rounds), "count"},
      {"sched.task_checks_per_round", ratio(d(L.task_checks), rounds), "count"},
      {"sched.dispatch_ns_per_round", ratio(L.dispatch_ns, rounds), "ns"},
      {"sched.heap_ns_per_round", ratio(L.heap_ns, rounds), "ns"},
      {"sched.dispatch_share", ratio(L.dispatch_ns, L.loop_ns), "ratio"},
      {"sched.tasksets", per_pass(d(L.tasksets)), "count"},
      {"sched.enqueue_ns_per_taskset", ratio(L.enqueue_ns, d(L.tasksets)), "ns"},
      {"sched.enqueue_share", ratio(L.enqueue_ns, L.loop_ns), "ratio"},
      {"sched.launches", per_pass(d(L.launches)), "count"},
      {"sched.launch_allocs_per_launch", ratio(d(L.launch_allocs), d(L.launches)), "ratio"},
      {"sched.scan_allocs_per_round", ratio(d(L.scan_allocs), d(L.scan_rounds)), "ratio"},
      {"exec.oom_kills", per_pass(d(L.oom_kills)), "count"},
      {"exec.executor_losses", per_pass(d(L.executor_losses)), "count"},
      {"exec.attempts_per_task", ratio(d(L.launches), d(L.completed_attempts)), "ratio"},
      {"cluster.heartbeats", per_pass(d(L.heartbeats)), "count"},
      {"cluster.heartbeat_ns_per_beat", ratio(L.heartbeat_ns, d(L.heartbeats)), "ns"},
      {"cluster.heartbeat_queue_entries", d(L.heartbeat_queue_entries), "count"},
      {"cluster.scale_ups", per_pass(d(L.scale_ups)), "count"},
      {"cluster.scale_downs", per_pass(d(L.scale_downs)), "count"},
      {"faults.injected", per_pass(d(L.faults_injected)), "count"},
      {"faults.partitions_resubmitted", per_pass(d(L.partitions_resubmitted)), "count"},
      {"dag.jobs_completed", per_pass(d(L.jobs_completed)), "count"},
      {"dag.recomputed_partitions", per_pass(d(L.recomputed_partitions)), "count"},
      {"app.construct_ms", mean_ms("app.construct"), "ms"},
      {"app.begin_ms", mean_ms("app.begin"), "ms"},
      {"workloads.build_ms", mean_ms("workloads.build"), "ms"},
      {"cluster.fleet_gen_ms", mean_ms("cluster.generate_fleet"), "ms"},
      {"obs.records", per_pass(d(L.records)), "count"},
      {"obs.record_share", record_on > 0.0 ? 1.0 - record_off / record_on : 0.0, "ratio"},
      {"obs.artifacts_ms", mean_ms("app.run_artifacts"), "ms"},
      {"obs.analyze_ms", mean_ms("obs.analyze_run"), "ms"},
      {"obs.export_ms.trace_csv", mean_ms("obs.export.trace_csv"), "ms"},
      {"obs.export_ms.chrome", mean_ms("obs.export.chrome"), "ms"},
      {"obs.export_ms.perfetto", mean_ms("obs.export.perfetto"), "ms"},
      {"obs.export_ms.audit", mean_ms("obs.export.audit"), "ms"},
      {"obs.export_ms.metrics", mean_ms("obs.export.metrics"), "ms"},
      {"obs.export_mib", per_pass(export_bytes) / (1024.0 * 1024.0), "MiB"},
      {"replay.checkpoint_ms", mean_ms("replay.capture_checkpoint"), "ms"},
      {"replay.restore_ms", mean_ms("replay.restore"), "ms"},
      {"replay.restore_over_straight", ratio(restore, straight), "ratio"},
      {"replay.branch_ms", mean_ms("replay.run_branch"), "ms"},
      {"replay.whatif_ms", mean_ms("replay.advise_whatif"), "ms"},
      {"sweep.cells_per_s", ratio(static_cast<double>(cell_ms.size()), sweep_wall), "1/s"},
      {"sweep.cell_ms_p50", percentile(cell_ms, 50), "ms"},
      {"sweep.cell_ms_tail", percentile(cell_ms, w.tail_pct), "ms"},
      {"sweep.worker_idle_frac", sweep_wall > 0.0 ? 1.0 - cell_wall / (workers * sweep_wall) : 0.0,
       "ratio"},
      {"sweep.failed_cells", per_pass(failed_cells), "count"},
      {"sweep.matrix_ms", mean_ms("sweep.to_json"), "ms"},
      {"bench.trace_overhead",
       ratio(percentile(traced_walls, 50), percentile(untraced_walls, 50)) - 1.0, "ratio"},
      {"bench.unattributed_share", L.loop_ns > 0.0 ? 1.0 - attributed / L.loop_ns : 0.0,
       "ratio"},
  };
  for (const auto& [layer, ms] : self_ms) m.push_back({"self_ms." + layer, ms, "ms"});
  for (const Metric& sim : simulated(w, *traced.front())) m.push_back(sim);
  return m;
}

void print_result(const std::vector<Metric>& metrics, bool correct, std::size_t attempted,
                  std::size_t failed) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Removes the per-process scratch directory however main exits.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  rupam::Logger::set_level(rupam::LogLevel::kError);

  const std::string out = kOutDir;
  ScratchDir scratch{out + "/scratch-" + std::to_string(getpid())};
  std::unique_ptr<Workload> workload;
  try {
    std::filesystem::create_directories(scratch.path);
    workload = make_workload(args, scratch.path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: cannot set up " << args.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::vector<std::unique_ptr<Pass>> passes;
  std::vector<const Pass*> untraced, traced;
  std::size_t untraced_ops = 0;
  SpeedProbe probe;
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  auto run_pass = [&](bool with_trace) {
    passes.push_back(std::make_unique<Pass>());
    Pass& pass = *passes.back();
    pass.traced = with_trace;
    pass.probe = &probe;
    if (with_trace) pass.spans = &pass.span_log;
    for (int i = 0; i < workload->probes_per_pass; ++i) probe.sample();
    set_alloc_counting(with_trace);
    const std::int64_t t0 = now_ns();
    try {
      workload->run_pass(pass);
    } catch (const std::exception& e) {
      ++pass.attempted;
      ++pass.failed;
      pass.fail(std::string("pass aborted: ") + e.what());
    }
    pass.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    set_alloc_counting(false);
    if (with_trace) {
      // Record-share runs are extra work outside the pass: no spans.
      pass.spans = nullptr;
      workload->after_traced_pass(pass);
      traced.push_back(&pass);
    } else {
      untraced.push_back(&pass);
      untraced_ops += pass.op_ms.size();
    }
    // Every pass repeats the first pass's inputs, so it must reproduce its
    // simulated outputs; otherwise none of its operations count as correct.
    const Pass& reference = *passes.front();
    if (pass.digest != reference.digest || pass.inputs != reference.inputs) {
      pass.failed = pass.attempted;
      pass.fail("pass " + std::to_string(passes.size()) +
                " simulated outputs differ from the first pass");
    }
  };

  // Another pass starts only if it would end less than half a pass past
  // --seconds, so long passes do not double a run's length.
  auto time_left = [&] {
    const double pass_s = elapsed() / static_cast<double>(passes.size());
    return elapsed() + pass_s / 2.0 < args.seconds && elapsed() < kHardStopSeconds;
  };
  if (!args.trace) {
    do {
      run_pass(false);
    } while (!args.smoke && (time_left() || (untraced_ops < workload->min_ops &&
                                             elapsed() < kHardStopSeconds)));
  } else {
    do {
      run_pass(false);
      run_pass(true);
    } while (!args.smoke && time_left());
  }

  for (int i = 0; i < 3; ++i) probe.sample();
  const double f = probe.factor();
  std::size_t attempted = 0, failed = 0;
  for (const auto& p : passes) {
    attempted += p->attempted;
    failed += p->failed;
    for (const std::string& e : p->errors) std::cout << "FAILED: " << e << "\n";
  }
  const Pass& first = *passes.front();
  std::cout << "workload " << args.workload << " seed " << args.seed << ": " << passes.size()
            << " passes, " << attempted << " operations, " << failed << " failed in "
            << elapsed() << " s\n";
  std::cout << "host speed: probe kernel p10 " << probe.speed_ms() << " ms (reference "
            << kProbeReferenceMs << " ms): host times scaled by " << f << "\n";
  std::cout << "digest " << args.workload << " " << fnv1a_hex(first.digest) << " inputs "
            << fnv1a_hex(first.inputs) << "\n";
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  std::ofstream(out + "/digest-" + tag + ".txt") << first.inputs << first.digest;

  std::vector<Metric> metrics = args.trace ? per_layer(*workload, traced, untraced, f)
                                           : end_to_end(*workload, untraced, f);
  if (args.trace) write_spans(out + "/spans-" + tag + ".json", traced);
  if (!args.trace) {
    for (const Metric& m : simulated(*workload, first)) {
      std::cout << "  " << std::left << std::setw(34) << m.name << " " << m.value << " " << m.unit
                << "\n";
    }
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << " " << m.value << " " << m.unit
              << "\n";
  }
  print_result(metrics, failed == 0, attempted, failed);
  return 0;
}
