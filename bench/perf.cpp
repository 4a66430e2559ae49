// The simulator's host-side costs in one program: the scheduler decision
// paths, fleet-scale dispatch, the event kernel, the sweep pool, the
// analyzer and replay. It takes no arguments, prints every check as a
// named predicate row, writes BENCH_perf.json and exits 1 when a check
// fails (DESIGN.md §13).
//
// Most checks compare against bench/baselines/BENCH_perf.json:
//  * every simulated count equals its baseline value exactly;
//  * every host time at reference speed, and every allocation count (these
//    depend on the standard library build), is at most its baseline value
//    times 1 + kTolerance. A host time at reference speed is the p10 of a
//    timed loop's passes times SpeedProbe::kReferenceMs over the p10 of the
//    probe samples the same loop took, one before each pass, so a slower
//    host and a burst of contention largely cancel (DESIGN.md §13 says
//    where they do not).
// The others carry bounds of their own: steady-state scan rounds and churn
// stay (almost) allocation-free, two ratios of timings taken in one run,
// where host speed cancels, stay in budget, and the sweep's result matrix
// is the same at every pool size.
//
// Sections (every run at seed 1 unless noted):
//  * sched    — TC on 12-node Hydra under all five schedulers: dispatch and
//               enqueue cost, steady-state allocations (DESIGN.md §15).
//  * fleet    — TeraSort at 0.5 GB per node on generated Hydra-ratio fleets
//               of 12, 100, 500 and 1000 nodes, four schedulers, speculation
//               off: what a round costs as the fleet grows (§9).
//  * kernel   — a cancel-heavy churn on the bare event kernel (§10).
//  * sweep    — a small real grid (base seed 11) at 1, 2 and 4 workers
//               (§11).
//  * analyzer — analyze_run over PR (10 iterations) under RUPAM on Hydra,
//               every sink on (§13), and the run's Perfetto, Chrome, trace
//               CSV and audit JSON exports (§8).
//  * replay   — SQL under Spark on the Fig 3 motivation pair: checkpoint at
//               half the makespan, restore from JSON and finish; the what-if
//               advisor over the run's own diagnosis (§14).
#include <array>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "cluster/fleet.hpp"
#include "common/json_reader.hpp"
#include "common/stats.hpp"
#include "obs/analyzer.hpp"
#include "obs/overhead.hpp"
#include "replay/checkpoint.hpp"
#include "replay/whatif.hpp"
#include "simcore/simulator.hpp"
#include "sweep/orchestrator.hpp"
#include "workloads/presets.hpp"

/// Heap allocations this thread has made (heap_counter.cpp).
std::uint64_t heap_allocs();

namespace {

using namespace rupam;

/// CI's tolerance on host times and allocation counts.
constexpr double kTolerance = 0.35;
constexpr const char* kBaselinePath = RUPAM_SOURCE_DIR "/bench/baselines/BENCH_perf.json";

template <typename F>
double time_ms(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

/// The p10 of a timed loop's raw times, at reference speed.
double at_reference(const std::vector<double>& raw, const bench::SpeedProbe& probe) {
  return percentile(raw, 10.0) * probe.factor();
}

std::string f2(double v) { return format_fixed(v, 2); }

/// Integers as integers, anything else to two decimals.
std::string shown(double v) {
  return std::abs(v) < 1e15 && v == std::floor(v) ? std::to_string(static_cast<long long>(v))
                                                  : f2(v);
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ", ") + item;
  return out;
}

// -------------------------------------------------------------- checks --

/// One value gated against the baseline: its label in the check row and its
/// BENCH_perf.json key under the section's prefix.
struct Value {
  std::string label;
  std::string key;
  double value;
};

enum class Gate {
  kEqual,    // a simulated count
  kAtMost,   // a host time at reference speed or an allocation count
};

/// The check rows and BENCH_perf.json, filled in section order.
struct Report {
  std::string section;  // section now reporting
  JsonValue baseline;
  bench::JsonReport json{"perf"};
  TextTable checks{{"Section", "Check", "Measured", "Result"}};
  std::vector<std::string> failures;

  void check(const std::string& predicate, const std::string& measured, bool holds) {
    checks.add_row({section, predicate, measured, holds ? "pass" : "FAIL"});
    if (!holds) failures.push_back(section + ": " + predicate);
  }

  /// Records each value under "<section>.<key>" and checks all of them in
  /// one row: each equals its baseline value, or is at most that value times
  /// 1 + kTolerance.
  void against_baseline(Gate gate, const std::string& what, const std::vector<Value>& values) {
    std::vector<std::string> measured, off;
    for (const Value& v : values) {
      std::string key = section + "." + v.key;
      json.add(key, v.value);
      const JsonValue* b = baseline.find(key);
      if (b == nullptr || !b->is_number()) {
        off.push_back(v.label + " has no baseline (" + key + ")");
        continue;
      }
      double base = b->as_number();
      bool holds = gate == Gate::kEqual ? v.value == base : v.value <= base * (1.0 + kTolerance);
      measured.push_back(v.label + " " +
                         (gate == Gate::kEqual ? shown(v.value) : f2(v.value / base) + "x"));
      if (!holds) off.push_back(v.label + " " + shown(v.value) + " vs " + shown(base));
    }
    std::string row = !off.empty() ? join(off)
                      : gate == Gate::kEqual && values.size() > 5
                          ? std::to_string(values.size()) + " values equal"
                          : join(measured);
    std::string bound =
        gate == Gate::kEqual ? " = baseline" : " <= " + f2(1.0 + kTolerance) + "x baseline";
    check(what + bound, row, off.empty());
  }
};

// --------------------------------------------------------------- sched --

/// kPasses round-robin passes of TC under each scheduler, a probe sample
/// before each. Each pass starts at the next scheduler, so the run that
/// follows the probe, whose allocations leave the heap and caches cold, is
/// a different scheduler's every pass. Allocations count over the second
/// half of a run's dispatch rounds, by then every scratch buffer, symbol
/// table and queue has reached its high-water capacity; the previous pass's
/// round count marks it, so the first pass only times.
void sched(Report& out) {
  constexpr int kPasses = 5;
  constexpr std::array<SchedulerKind, 5> kKinds = {
      SchedulerKind::kFifo, SchedulerKind::kSpark, SchedulerKind::kStageAware,
      SchedulerKind::kHeft, SchedulerKind::kRupam};
  struct Runs {
    std::string name;
    OverheadProfiler profiler;  // the last pass's
    std::size_t events = 0, launches = 0;
    double makespan = 0.0;
    std::vector<double> dispatch_ns_per_launch, enqueue_ns, dispatch_ns_per_round;

    std::uint64_t rounds() const { return profiler.section(ProfileSection::kDispatch).count; }
    const AllocStats& allocs() const { return profiler.alloc_stats(); }
  };
  std::array<Runs, kKinds.size()> runs;
  bench::SpeedProbe probe;
  for (int pass = 0; pass < kPasses; ++pass) {
    probe.sample();
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      std::size_t k = (static_cast<std::size_t>(pass) + i) % kKinds.size();
      Runs& r = runs[k];
      SimulationConfig cfg;
      cfg.scheduler = kKinds[k];
      Simulation sim(cfg);
      std::uint64_t warmup = r.rounds() / 2;
      r.profiler = OverheadProfiler{};
      r.profiler.set_alloc_counter(&heap_allocs);
      r.profiler.set_alloc_warmup(warmup);
      sim.set_profiler(&r.profiler);
      Application app = build_workload(workload_preset("TC"), sim.cluster().node_ids(),
                                       /*seed=*/1, /*iterations_override=*/0,
                                       hdfs_placement_weights(sim.cluster()));
      r.makespan = sim.run(app);
      r.name = sim.scheduler().name();
      r.events = sim.sim().executed_events();
      r.launches = sim.scheduler().launches();
      const SectionStats& dispatch = r.profiler.section(ProfileSection::kDispatch);
      r.dispatch_ns_per_launch.push_back(static_cast<double>(dispatch.total_ns) /
                                         static_cast<double>(r.launches));
      r.dispatch_ns_per_round.push_back(dispatch.mean_ns());
      r.enqueue_ns.push_back(r.profiler.section(ProfileSection::kEnqueue).mean_ns());
      if (pass == 0) out.json.record_kernel(sim.sim().stats());
    }
  }
  out.json.add("sched.probe_p10_ms", probe.speed_ms());

  auto each = [&](const std::string& key, auto value) {
    std::vector<Value> values;
    for (const Runs& r : runs) values.push_back({r.name, r.name + "." + key, value(r)});
    return values;
  };
  TextTable table({"Scheduler", "Events", "Rounds", "Launches", "Dispatch ns/launch",
                   "Enqueue ns/taskset", "Scan rounds", "Scan allocs", "Launch allocs/round"});
  std::vector<std::string> scan_allocs;
  bool allocation_free = true;
  for (const Runs& r : runs) {
    table.add_row({r.name, std::to_string(r.events), std::to_string(r.rounds()),
                   std::to_string(r.launches),
                   format_fixed(at_reference(r.dispatch_ns_per_launch, probe), 0),
                   format_fixed(at_reference(r.enqueue_ns, probe), 0),
                   std::to_string(r.allocs().scan_rounds), std::to_string(r.allocs().scan_allocs),
                   f2(r.allocs().launch_allocs_per_round())});
    scan_allocs.push_back(r.name + " " + std::to_string(r.allocs().scan_allocs));
    allocation_free = allocation_free && r.allocs().scan_allocs == 0;
  }
  std::cout << "Host times at reference speed (p10 of " << kPasses << " passes).\n";
  table.print(std::cout);

  out.against_baseline(Gate::kEqual, "events",
                       each("events", [](const Runs& r) { return double(r.events); }));
  out.against_baseline(Gate::kEqual, "dispatch rounds",
                       each("rounds", [](const Runs& r) { return double(r.rounds()); }));
  out.against_baseline(Gate::kEqual, "launches",
                       each("launches", [](const Runs& r) { return double(r.launches); }));
  out.against_baseline(Gate::kEqual, "steady scan rounds", each("scan_rounds", [](const Runs& r) {
    return double(r.allocs().scan_rounds);
  }));
  out.against_baseline(Gate::kEqual, "makespan (s)",
                       each("makespan_s", [](const Runs& r) { return r.makespan; }));
  out.check("steady scan rounds allocate nothing", join(scan_allocs), allocation_free);
  out.against_baseline(Gate::kAtMost, "allocations per launch round",
                       each("launch_allocs_per_round", [](const Runs& r) {
                         return r.allocs().launch_allocs_per_round();
                       }));
  out.against_baseline(Gate::kAtMost, "dispatch ns per launch",
                       each("dispatch_ns_per_launch", [&](const Runs& r) {
                         return at_reference(r.dispatch_ns_per_launch, probe);
                       }));
  out.against_baseline(Gate::kAtMost, "enqueue ns per taskset",
                       each("enqueue_ns_per_taskset", [&](const Runs& r) {
                         return at_reference(r.enqueue_ns, probe);
                       }));
  // Supports the paper's claim that RUPAM's bookkeeping keeps scheduler
  // delay moderate (Fig 7).
  double ratio = percentile(runs[4].dispatch_ns_per_round, 10.0) /
                 percentile(runs[0].dispatch_ns_per_round, 10.0);
  out.json.add("sched.rupam_over_fifo_dispatch", ratio);
  out.check("RUPAM/FIFO dispatch ns per round <= 10x", f2(ratio) + "x", ratio <= 10.0);
}

// --------------------------------------------------------------- fleet --

/// Each fleet size and scheduler once for the counts; N=12 and N=1000 in
/// every one of kPasses passes, a probe sample before each.
void fleet(Report& out) {
  constexpr int kPasses = 4;
  constexpr std::array<SchedulerKind, 4> kKinds = {
      SchedulerKind::kFifo, SchedulerKind::kSpark, SchedulerKind::kStageAware,
      SchedulerKind::kRupam};
  struct Cell {
    Cell(int n, SchedulerKind k) : nodes(n), kind(k) {}

    int nodes;
    SchedulerKind kind;
    std::string name;  // scheduler
    double makespan = 0.0;
    std::size_t events = 0, launches = 0;
    SchedulerBase::DispatchWorkCounters work;
    std::vector<double> walls;  // ms

    std::string label() const { return "N=" + std::to_string(nodes) + " " + name; }
    std::string key(const std::string& what) const {
      return "n" + std::to_string(nodes) + "." + name + "." + what;
    }
    double per_launch(std::size_t count) const {
      return static_cast<double>(count) / static_cast<double>(launches);
    }
  };
  std::vector<Cell> cells;
  for (int n : {12, 100, 500, 1000}) {
    for (SchedulerKind kind : kKinds) cells.emplace_back(n, kind);
  }
  bench::SpeedProbe probe;
  for (int pass = 0; pass < kPasses; ++pass) {
    probe.sample();
    for (Cell& cell : cells) {
      if (pass > 0 && cell.nodes != 12 && cell.nodes != 1000) continue;
      // Hydra itself at 12 nodes; the 6:4:2 class ratio with mild jitter
      // beyond. TeraSort builds 8 map + 8 reduce tasks per input GB, so
      // 0.5 GB per node keeps ~4 tasks per node per wave at every N.
      FleetSpec spec =
          cell.nodes == 12 ? hydra_fleet_spec() : scaled_hydra_fleet(cell.nodes, /*seed=*/1);
      WorkloadPreset preset = workload_preset("TeraSort");
      preset.input_gb = 0.5 * static_cast<double>(cell.nodes);
      SimulationConfig cfg;
      cfg.scheduler = cell.kind;
      cfg.nodes = generate_fleet(spec);
      if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
      cfg.speculation.enabled = false;
      Simulation sim(cfg);
      Application app =
          build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                         /*iterations_override=*/0, hdfs_placement_weights(sim.cluster()));
      cell.walls.push_back(time_ms([&] { cell.makespan = sim.run(app); }));
      cell.name = sim.scheduler().name();
      cell.events = sim.sim().executed_events();
      cell.launches = sim.scheduler().launches();
      cell.work = sim.scheduler().dispatch_work();
      if (pass == 0) out.json.record_kernel(sim.sim().stats());
    }
  }
  out.json.add("fleet.probe_p10_ms", probe.speed_ms());

  TextTable table({"Nodes", "Scheduler", "Makespan (s)", "Events", "Rounds", "Launches",
                   "Events/launch", "Visits/launch", "Task checks/launch", "Wall (ms)"});
  for (const Cell& c : cells) {
    table.add_row({std::to_string(c.nodes), c.name, format_fixed(c.makespan, 1),
                   std::to_string(c.events), std::to_string(c.work.rounds),
                   std::to_string(c.launches), f2(c.per_launch(c.events)),
                   f2(c.per_launch(c.work.node_visits)), f2(c.per_launch(c.work.task_checks)),
                   format_fixed(percentile(c.walls, 10.0), 1)});
  }
  table.print(std::cout);

  auto each = [&](const std::string& key, auto value) {
    std::vector<Value> values;
    for (const Cell& c : cells) values.push_back({c.label(), c.key(key), value(c)});
    return values;
  };
  out.against_baseline(Gate::kEqual, "events",
                       each("events", [](const Cell& c) { return double(c.events); }));
  out.against_baseline(Gate::kEqual, "dispatch rounds",
                       each("rounds", [](const Cell& c) { return double(c.work.rounds); }));
  out.against_baseline(Gate::kEqual, "launches",
                       each("launches", [](const Cell& c) { return double(c.launches); }));
  out.against_baseline(Gate::kEqual, "makespan (s)",
                       each("makespan_s", [](const Cell& c) { return c.makespan; }));
  out.against_baseline(Gate::kEqual, "events per launch",
                       each("events_per_launch",
                            [](const Cell& c) { return c.per_launch(c.events); }));
  out.against_baseline(Gate::kEqual, "node visits per launch",
                       each("node_visits_per_launch",
                            [](const Cell& c) { return c.per_launch(c.work.node_visits); }));
  out.against_baseline(Gate::kEqual, "task checks per launch",
                       each("task_checks_per_launch",
                            [](const Cell& c) { return c.per_launch(c.work.task_checks); }));

  // At N=1000 a round must walk only the nodes that may have a free slot.
  std::vector<std::string> visits;
  bool few_visits = true;
  std::vector<Value> wall_per_launch;
  std::vector<std::string> ratios;
  for (const Cell& c : cells) {
    if (c.nodes != 1000) continue;
    if (c.name == "FIFO" || c.name == "Spark") {
      visits.push_back(c.name + " " + f2(c.per_launch(c.work.node_visits)));
      few_visits = few_visits && c.per_launch(c.work.node_visits) <= 2.0;
    }
    wall_per_launch.push_back(
        {c.label(), c.key("wall_us_per_launch"), at_reference(c.walls, probe) * 1000.0 /
                                                     static_cast<double>(c.launches)});
    // Printed, not checked: how much a launch's host cost grows from 12 to
    // 1000 nodes.
    for (const Cell& small : cells) {
      if (small.nodes != 12 || small.name != c.name) continue;
      double ratio = (static_cast<double>(c.events) / percentile(c.walls, 10.0)) /
                     (static_cast<double>(small.events) / percentile(small.walls, 10.0));
      out.json.add("fleet.n1000_over_n12_events_per_s." + c.name, ratio);
      ratios.push_back(c.name + " " + f2(ratio) + "x");
    }
  }
  std::cout << "Events/s at N=1000 over N=12 (p10 walls): " << join(ratios) << "\n";
  out.check("FIFO and Spark visit <= 2 nodes per launch at N=1000", join(visits), few_visits);
  out.against_baseline(Gate::kAtMost, "N=1000 wall us per launch", wall_per_launch);
}

// -------------------------------------------------------------- kernel --

/// R contended resources, each with one pending completion event. Every
/// tick is a dispatch round that cancels and re-pushes several far-future
/// completions, the pattern FairShareResource puts on the queue at fleet
/// scale: a kernel whose cancel leaves tombstones grows its queue with
/// every transition.
class Churn {
 public:
  static constexpr std::size_t kTransitionsPerTick = 8;

  Churn(Simulator& sim, std::size_t resources, std::size_t ticks)
      : sim_(sim), completion_(resources), ticks_left_(ticks) {}

  void seed(std::size_t chains) {
    for (std::size_t r = 0; r < completion_.size(); ++r) arm_completion(r);
    for (std::size_t c = 0; c < chains; ++c) {
      sim_.schedule_after(0.25 + 0.01 * static_cast<double>(c), [this] { tick(); });
    }
  }

 private:
  std::uint64_t rnd() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }

  void arm_completion(std::size_t r) {
    double eta = 20.0 + 0.1 * static_cast<double>(rnd() % 1000);
    completion_[r] = sim_.schedule_after(eta, [this, r] {
      if (ticks_left_ > 0) arm_completion(r);
    });
  }

  void tick() {
    if (ticks_left_ == 0) return;
    --ticks_left_;
    for (std::size_t i = 0; i < kTransitionsPerTick; ++i) {
      std::size_t r = rnd() % completion_.size();
      completion_[r].cancel();
      arm_completion(r);
    }
    sim_.schedule_after(0.05 + 0.001 * static_cast<double>(rnd() % 100), [this] { tick(); });
  }

  Simulator& sim_;
  std::vector<EventHandle> completion_;
  std::uint64_t rng_ = 0x243F6A8885A308D3ull;
  std::size_t ticks_left_;
};

void kernel(Report& out) {
  constexpr int kPasses = 3;
  constexpr std::size_t kResources = 256, kChains = 64, kTicks = 50000;
  bench::SpeedProbe probe;
  std::vector<double> ns_per_event;
  std::size_t events = 0, peak = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    probe.sample();
    Simulator sim;
    Churn churn(sim, kResources, kTicks);
    churn.seed(kChains);
    double ms = time_ms([&] { sim.run(); });
    events = sim.executed_events();
    peak = sim.peak_pending_events();
    ns_per_event.push_back(ms * 1e6 / static_cast<double>(events));
    if (pass == 0) out.json.record_kernel(sim.stats());
  }
  out.json.add("kernel.probe_p10_ms", probe.speed_ms());

  // Steady state: a warm-up churn grows the event arena to its high-water
  // mark, after which the same churn must leave the allocator alone.
  Simulator sim;
  Churn warmup(sim, kResources, kTicks / 4);
  warmup.seed(kChains);
  sim.run();
  Churn measured(sim, kResources, kTicks / 4);
  measured.seed(kChains);
  std::size_t events_before = sim.executed_events();
  std::uint64_t allocs_before = heap_allocs();
  sim.run();
  std::uint64_t allocs = heap_allocs() - allocs_before;
  std::size_t steady_events = sim.executed_events() - events_before;
  double per_event = static_cast<double>(allocs) / static_cast<double>(steady_events);
  out.json.add("kernel.steady_allocs_per_event", per_event);
  std::cout << "churn: " << events << " events, peak queue " << peak << "; steady: " << allocs
            << " allocations over " << steady_events << " events\n";

  out.against_baseline(Gate::kEqual, "simulated counts",
                       {{"churn events", "churn_events", double(events)},
                        {"churn peak queue", "churn_peak_queue", double(peak)},
                        {"steady events", "steady_events", double(steady_events)}});
  out.check("steady churn allocates <= 0.02 times per event", format_fixed(per_event, 4),
            per_event <= 0.02);
  out.against_baseline(Gate::kAtMost, "churn ns per event",
                       {{"churn", "churn_ns_per_event", at_reference(ns_per_event, probe)}});
}

// --------------------------------------------------------------- sweep --

/// One small real grid at each pool size: simulations share nothing, so
/// the pool must scale and the matrix must not depend on the worker count.
void sweep(Report& out) {
  SweepSpec spec;
  spec.name = "bench_sweep";
  spec.base_seed = 11;
  spec.replications = 2;
  spec.schedulers = {SchedulerKind::kSpark, SchedulerKind::kRupam};
  spec.fleet_sizes = {12};
  spec.arrival_rates = {0.05, 0.10};
  spec.fault_plans = {std::string()};
  spec.duration = 120.0;
  spec.tenants = 2;
  spec.mix = {"TeraSort", "KMeans"};
  spec.max_apps = 3;

  // The 1-worker pool runs first and last, and each pool's wall is the mean
  // of its runs: a lone 1-worker run that a burst of host speed catches
  // would otherwise read as a 4-worker slowdown.
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> order = {1, 4, 2, 1};
  if (cores > 4) order.insert(order.begin() + 3, cores);
  std::map<int, std::vector<double>> walls;  // ms per pool size
  std::string first_json;
  std::size_t failed = 0;
  std::set<int> differing;
  for (int threads : order) {
    SweepOptions opts;
    opts.threads = threads;
    SweepMatrix matrix;
    walls[threads].push_back(time_ms([&] { matrix = run_sweep(spec, opts); }));
    failed += matrix.failed_runs();
    if (first_json.empty()) {
      first_json = matrix.to_json();
      out.json.record_kernel(matrix.kernel_total());
      out.against_baseline(Gate::kEqual, "simulated counts",
                           {{"events", "events", double(matrix.kernel_total().events_executed)}});
    } else if (matrix.to_json() != first_json) {
      differing.insert(threads);
    }
  }
  TextTable table({"Workers", "Wall (s)", "Speedup", "Per-core efficiency"});
  double efficiency_at_4 = 0.0;
  for (const auto& [threads, ms] : walls) {
    double speedup = mean_of(walls[1]) / mean_of(ms);
    // Per core the machine can give: workers past the core count add
    // overhead, not throughput.
    double efficiency = speedup / static_cast<double>(std::min(threads, cores));
    if (threads == 4) efficiency_at_4 = efficiency;
    out.json.add("sweep.t" + std::to_string(threads) + ".per_core_efficiency", efficiency);
    table.add_row({std::to_string(threads), format_fixed(mean_of(ms) / 1000.0, 2),
                   f2(speedup) + "x", f2(efficiency)});
  }
  table.print(std::cout);
  out.check("no sweep run fails", std::to_string(failed) + " failed", failed == 0);
  out.check("every pool's matrix is byte-identical to the 1-worker one",
            differing.empty() ? "identical"
                              : "differs at " + std::to_string(*differing.begin()) + " workers",
            differing.empty());
  out.check("4-worker per-core efficiency >= 0.6 over min(4, cores)",
            f2(efficiency_at_4) + " on " + std::to_string(cores) + " cores",
            efficiency_at_4 >= 0.6);
}

// ------------------------------------------------------------ analyzer --

void analyzer(Report& out) {
  constexpr int kPasses = 4, kRepeatsPerPass = 3;
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_analysis = true;
  cfg.enable_spans = true;
  cfg.enable_audit = true;
  cfg.enable_trace = true;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), /*seed=*/1,
                                   /*iterations_override=*/10,
                                   hdfs_placement_weights(sim.cluster()));
  SimTime makespan = 0.0;
  double sim_ms = time_ms([&] { makespan = sim.run(app); });
  out.json.record_kernel(sim.sim().stats());

  // The four exports an operator loads into a trace viewer or a notebook,
  // written to memory.
  auto write_exports = [&] {
    std::ostringstream perfetto, chrome, csv, audit;
    sim.spans()->write_perfetto(perfetto);
    sim.trace()->write_chrome_tracing(chrome);
    sim.trace()->write_csv(csv);
    sim.audit()->write_json(audit);
    return double(perfetto.view().size() + chrome.view().size() + csv.view().size() +
                  audit.view().size());
  };

  bench::SpeedProbe probe;
  std::vector<double> raw, export_raw;
  RunDiagnosis diag;
  double export_bytes = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    probe.sample();
    for (int r = 0; r < kRepeatsPerPass; ++r) {
      raw.push_back(time_ms([&] { diag = analyze_run(sim.run_artifacts()); }));
    }
    for (int r = 0; r < kRepeatsPerPass; ++r) {
      export_raw.push_back(time_ms([&] { export_bytes = write_exports(); }));
    }
  }
  out.json.add("analyzer.probe_p10_ms", probe.speed_ms());
  // Printed, not checked: ratios of host timings of different code, which
  // a faster simulator alone moves.
  double share = percentile(raw, 10.0) / sim_ms;
  out.json.add("analyzer.share_of_sim", share);
  std::cout << "analyze_run " << f2(percentile(raw, 10.0)) << " ms vs sim "
            << format_fixed(sim_ms, 1) << " ms (" << bench::pct(share) << "%)\n";
  double export_share = percentile(export_raw, 10.0) / sim_ms;
  out.json.add("analyzer.export_over_run", export_share);
  std::cout << "exports " << f2(percentile(export_raw, 10.0)) << " ms vs sim "
            << format_fixed(sim_ms, 1) << " ms (" << f2(export_share) << "x)\n";

  out.against_baseline(Gate::kEqual, "simulated counts",
                       {{"makespan (s)", "makespan_s", makespan},
                        {"attempts", "attempts", double(diag.attempts)},
                        {"stragglers", "stragglers", double(diag.stragglers.size())}});
  out.against_baseline(Gate::kAtMost, "analyze_run ms",
                       {{"analyze_run", "analyze_run_ms", at_reference(raw, probe)}});
  out.against_baseline(Gate::kEqual, "Perfetto + Chrome + trace CSV + audit JSON bytes",
                       {{"exports", "export_bytes", export_bytes}});
  out.against_baseline(Gate::kAtMost, "Perfetto + Chrome + trace CSV + audit JSON ms",
                       {{"exports", "export_ms", at_reference(export_raw, probe)}});
}

// -------------------------------------------------------------- replay --

void replay(Report& out) {
  constexpr int kPasses = 5;
  RunSpec spec;
  spec.workload = "SQL";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kSpark;
  // The paper's Fig 3 pair: one slow-CPU node, one fast-CPU node.
  spec.fleet_spec = load_fleet_file(RUPAM_SOURCE_DIR "/examples/motivation_fleet.json");
  SimulationConfig obs;  // the diagnosis needs every sink
  obs.enable_analysis = true;
  obs.enable_spans = true;
  obs.enable_trace = true;

  ReplayRun base = start_replay_run(spec, obs);
  SimTime makespan = base.sim->finish();
  out.json.record_kernel(base.sim->sim().stats());
  std::ostringstream diagnosis;
  write_diagnosis_json(analyze_run(base.sim->run_artifacts()), diagnosis);
  std::vector<DiagnosedStraggler> stragglers = parse_diagnosis_stragglers(diagnosis.str());
  WhatIfConfig wcfg;
  wcfg.threads = 2;
  WhatIfReport report = advise_whatif(spec, stragglers, wcfg);
  for (const WhatIfFinding& f : report.findings) {
    std::cout << "what-if " << f.branch.label << ": p95 saving "
              << format_fixed(f.p95_jct_saving, 3) << " s (" << f.motivation << ")\n";
  }

  bench::SpeedProbe probe;
  std::vector<double> straight_ms, replay_ms;
  std::size_t pins = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    probe.sample();
    ReplayRun straight = start_replay_run(spec, obs);
    straight_ms.push_back(time_ms([&] { straight.sim->finish(); }));
    ReplayRun resumed;
    replay_ms.push_back(time_ms([&] {
      Checkpoint cp = capture_checkpoint(spec, makespan / 2.0);
      pins = cp.pins.size();
      resumed = restore_checkpoint(parse_checkpoint_json(checkpoint_to_json(cp)), obs);
      resumed.sim->finish();
    }));
  }
  out.json.add("replay.probe_p10_ms", probe.speed_ms());
  // Printed, not checked: a ratio of host timings of different code.
  double share = percentile(replay_ms, 10.0) / percentile(straight_ms, 10.0);
  out.json.add("replay.share_of_straight", share);
  std::cout << "checkpoint + restore + finish " << f2(percentile(replay_ms, 10.0))
            << " ms vs straight " << f2(percentile(straight_ms, 10.0)) << " ms (" << f2(share)
            << "x)\n";

  out.against_baseline(Gate::kEqual, "simulated counts",
                       {{"makespan (s)", "makespan_s", makespan},
                        {"checkpoint pins", "checkpoint_pins", double(pins)},
                        {"what-if stragglers", "whatif_stragglers", double(stragglers.size())},
                        {"what-if candidates", "whatif_candidates",
                         double(report.findings.size())}});
  out.against_baseline(Gate::kAtMost, "checkpoint + restore + finish ms",
                       {{"replay", "replay_ms", at_reference(replay_ms, probe)}});
}

struct Section {
  const char* id;
  const char* description;
  void (*run)(Report&);
};

constexpr Section kSections[] = {
    {"sched", "TC on Hydra, five schedulers: dispatch, enqueue, allocations", sched},
    {"fleet", "TeraSort on fleets of 12 to 1000 nodes, four schedulers", fleet},
    {"kernel", "cancel-heavy churn on the event kernel", kernel},
    {"sweep", "a small grid at 1, 2 and 4 workers", sweep},
    {"analyzer", "analyze_run and exports over PR on Hydra", analyzer},
    {"replay", "checkpoint, restore and what-if on the Fig 3 pair", replay},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "perf: takes no arguments, got '" << argv[1] << "'\n";
    return 2;
  }
  Report report;
  std::optional<std::string> baseline = read_text_file(kBaselinePath);
  if (!baseline) {
    std::cerr << "perf: cannot read " << kBaselinePath << "\n";
    return 1;
  }
  try {
    report.baseline = parse_json(*baseline);
    for (const Section& s : kSections) {
      bench::print_header(s.id, s.description);
      report.section = s.id;
      s.run(report);
      std::cout << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perf: " << report.section << ": " << e.what() << "\n";
    return 1;
  }
  report.json.write();
  std::cout << "\nChecks (host times at reference speed; baseline bench/baselines/"
               "BENCH_perf.json)\n";
  report.checks.print(std::cout);
  for (const std::string& failure : report.failures) {
    std::cerr << "perf: check fails: " << failure << "\n";
  }
  return report.failures.empty() ? 0 : 1;
}
