// The paper's evaluation in one table-driven program: Tables II–V, Figs 2,
// 3 and 5–9, the RUPAM ablations, the heterogeneity control and the
// baseline ladder. Each artifact runs its cells, prints its tables and
// states the paper's claims about them as predicates. stdout ends with the
// markdown claims block EXPERIMENTS.md holds verbatim; the program writes
// BENCH_paper.json and exits 1 when a ✅ claim fails. It takes no
// arguments. Runs are RunSpecs built the CLI's way, replication r at seed
// 1 + r, on the parallel_for pool, so stdout is byte-identical at any
// thread count. Figs 2 and 3 (custom inputs) and Tables II–IV (presets and
// probes) report from their own bodies.
#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "cluster/presets.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/locality_counter.hpp"
#include "simcore/timeseries.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/work_queue.hpp"
#include "workloads/presets.hpp"

namespace {

using namespace rupam;

// -------------------------------------------------------------- claims --

enum class Mark { kYes, kPartial, kNo };  // ✅ 🟡 ❌
using enum Mark;

/// The claims table and BENCH_paper.json, filled in artifact order.
struct Report {
  std::string artifact;  // id of the artifact now reporting
  bench::JsonReport json{"paper"};
  std::string fig5_table;  // part of the claims block
  TextTable claims{{"Artifact", "Paper claim", "Measured", "Mark", "Check"}};
  std::vector<std::string> failures;  // ✅ claims whose predicate fails

  /// An empty predicate prints a quoted magnitude only. Only ✅ claims
  /// gate the exit code; 🟡 and ❌ ones print their verdict.
  bool claim(Mark mark, const std::string& paper, const std::string& measured,
             const std::string& predicate = "", bool holds = true) {
    const char* symbol = mark == kYes ? "✅" : mark == kPartial ? "🟡" : "❌";
    claims.add_row({"`" + artifact + "`", paper, measured, symbol,
                    predicate.empty() ? "—" : (holds ? "pass: " : "FAIL: ") + predicate});
    if (mark == kYes && !holds) failures.push_back(artifact + ": " + paper);
    return holds;
  }
};

std::string f1(double v) { return format_fixed(v, 1); }
std::string f2(double v) { return format_fixed(v, 2); }
std::string times(double ratio) { return f2(ratio) + "×"; }

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ", ") + item;
  return out;
}

/// One compared item: what it is, the side claimed larger, the other.
struct Vs {
  std::string item;
  double a, b;
};

/// Claims a > b on every item, printing "item a vs b<unit>" for each.
bool greater_on(Report& out, Mark mark, const std::string& paper, const std::string& a_name,
                const std::string& b_name, const std::vector<Vs>& items,
                const std::string& unit = " s", int decimals = 1) {
  std::vector<std::string> shown, names;
  bool holds = true;
  for (const Vs& v : items) {
    shown.push_back(v.item + " " + format_fixed(v.a, decimals) + " vs " +
                    format_fixed(v.b, decimals) + unit);
    names.push_back(v.item);
    holds = holds && v.a > v.b;
  }
  return out.claim(mark, paper, join(shown), a_name + " > " + b_name + " on " + join(names),
                   holds);
}

// ---------------------------------------------------------------- runs --

/// What the artifacts read from one simulated run.
struct Outcome {
  SimTime makespan = 0.0;
  KernelStats kernel{};
  LocalityCounts locality{};
  Breakdown breakdown;
  std::size_t failed_attempts = 0, executor_losses = 0;
  // Utilization-sampled runs only: node averages and the per-second
  // cross-node standard deviation series.
  double avg_cpu = 0.0, avg_memory = 0.0, avg_net = 0.0, avg_disk = 0.0;
  std::vector<double> cpu_sd, net_sd, disk_sd;
};

/// `reps` replications of one RunSpec. `tweak` edits the config after
/// make_simulation_config: the ablations' RUPAM switches and the
/// homogeneous control's nodes.
struct Cell {
  RunSpec spec;
  int reps = 1;
  std::function<void(SimulationConfig&)> tweak;
};

Cell cell_of(const std::string& workload, SchedulerKind scheduler, int reps, int iterations = 0,
             bool sampled = false) {
  Cell cell{{}, reps, nullptr};
  cell.spec.workload = workload;
  cell.spec.scheduler = scheduler;
  cell.spec.iterations = iterations;
  cell.spec.sample_utilization = sampled;
  return cell;
}

/// Spark, then RUPAM, on each workload: cells 2i and 2i + 1.
std::vector<Cell> spark_vs_rupam(const std::vector<std::string>& workloads, int reps,
                                 int iterations = 0, bool sampled = false) {
  std::vector<Cell> cells;
  for (const std::string& w : workloads) {
    cells.push_back(cell_of(w, SchedulerKind::kSpark, reps, iterations, sampled));
    cells.push_back(cell_of(w, SchedulerKind::kRupam, reps, iterations, sampled));
  }
  return cells;
}

Outcome simulate(const Cell& cell, std::uint64_t seed) {
  RunSpec spec = cell.spec;
  spec.seed = seed;
  SimulationConfig cfg = make_simulation_config(spec);
  if (cell.tweak) cell.tweak(cfg);
  Simulation sim(cfg);
  Application app = make_run_application(spec, sim);
  Outcome o;
  o.makespan = sim.run(app);
  o.kernel = sim.sim().stats();
  o.locality = count_locality(sim.scheduler().completed());
  o.breakdown = aggregate_breakdown(sim.scheduler().completed());
  o.failed_attempts = sim.scheduler().failures().size();
  o.executor_losses = sim.total_executor_losses();
  if (const UtilizationSampler* sampler = sim.sampler()) {
    o.avg_cpu = sampler->avg_cpu_util();
    o.avg_memory = sampler->avg_memory_used();
    o.avg_net = sampler->avg_net_rate();
    o.avg_disk = sampler->avg_disk_rate();
    o.cpu_sd = cross_series_stddev(sampler->cpu_series(o.makespan));
    o.net_sd = cross_series_stddev(sampler->net_series(o.makespan));
    o.disk_sd = cross_series_stddev(sampler->disk_series(o.makespan));
  }
  return o;
}

/// One cell's replications in replication order, and an artifact's cells.
using Reps = std::vector<Outcome>;
using Cells = std::vector<Reps>;

/// Every replication of every cell on one parallel_for pool, replication r
/// at seed 1 + r, each into its own pre-sized slot. The runs' kernel
/// counters go into the report's footer.
Cells run(Report& out, const std::vector<Cell>& cells) {
  Cells results;
  std::vector<std::pair<std::size_t, std::size_t>> slots;  // (cell, replication)
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results.emplace_back(static_cast<std::size_t>(cells[c].reps));
    for (std::size_t r = 0; r < results[c].size(); ++r) slots.emplace_back(c, r);
  }
  parallel_for(slots.size(), 0, [&](std::size_t i) {
    auto [c, r] = slots[i];
    results[c][r] = simulate(cells[c], 1 + r);
  });
  for (const Reps& reps : results) {
    for (const Outcome& o : reps) out.json.record_kernel(o.kernel);
  }
  return results;
}

/// Mean and 95% CI of the replications' makespans, the sweep's aggregate.
MetricAggregate makespan(const Reps& reps) {
  std::vector<double> values;
  for (const Outcome& o : reps) values.push_back(o.makespan);
  return aggregate_metric(values);
}

/// Sum of `field` over the replications, in replication order.
template <typename Field>
double sum_of(const Reps& reps, Field field) {
  double sum = 0.0;
  for (const Outcome& o : reps) sum += field(o);
  return sum;
}

template <typename Field>
double per_run(const Reps& reps, Field field) {
  return sum_of(reps, field) / static_cast<double>(reps.size());
}

// ----------------------------------------------------------- artifacts --

void table2(Report& out) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  TextTable table({"Name", "CPU (GHz)", "Cores", "Memory (GB)", "Network (GbE)", "SSD", "GPU",
                   "#"});
  std::vector<std::string> described;
  for (const std::string cls : {"thor", "hulk", "stack"}) {
    auto ids = cluster.nodes_of_class(cls);
    const NodeSpec& s = cluster.node(ids.front()).spec();
    double gbe = s.net_bandwidth * 8.0 / 1e9;
    table.add_row({cls, format_number(s.cpu_ghz), std::to_string(s.cores),
                   format_number(to_gib(s.memory)), format_number(gbe), s.has_ssd ? "Y" : "N",
                   s.gpus > 0 ? "Y" : "N", std::to_string(ids.size())});
    described.push_back(std::to_string(ids.size()) + "× " + cls + " (" +
                        std::to_string(s.cores) + "-core, " + format_number(to_gib(s.memory)) +
                        " GB" + (s.has_ssd ? ", SSD" : "") + (gbe >= 10.0 ? ", 10 GbE" : "") +
                        (s.gpus > 0 ? ", GPU" : "") + ")");
  }
  table.print(std::cout);
  const std::string paper =
      "6× thor (8-core, 16 GB, SSD), 4× hulk (32-core, 64 GB, 10 GbE), "
      "2× stack (16-core, 48 GB, GPU)";
  out.claim(kYes, "Hydra: " + paper, join(described),
            "node classes, counts, cores, memory, SSD, 10 GbE and GPU equal the paper's",
            join(described) == paper);
}

void table3(Report& out) {
  std::vector<NodeId> nodes(12);
  for (int i = 0; i < 12; ++i) nodes[static_cast<std::size_t>(i)] = i;
  TextTable table({"Workload", "Input size (GB)", "Iterations/queries", "Jobs", "Tasks"});
  std::vector<std::string> inputs;
  for (const auto& preset : table3_workloads()) {
    Application app = build_workload(preset, nodes, 1);
    table.add_row({preset.long_name + " (" + preset.name + ")", format_number(preset.input_gb),
                   std::to_string(preset.iterations), std::to_string(app.jobs.size()),
                   std::to_string(app.total_tasks())});
    inputs.push_back(preset.name + " " + format_number(preset.input_gb));
  }
  table.print(std::cout);
  const std::string paper = "LR 6, TeraSort 40, SQL 35, PR 0.95, TC 0.95, GM 0.96, KMeans 3.7";
  out.claim(kYes, "Seven SparkBench workloads at the paper's inputs (GB): " + paper,
            join(inputs), "input sizes equal the paper's", join(inputs) == paper);
}

// Table IV probes drive the same fair-share resource models the schedulers
// see: a SysBench-like CPU test (8 ref-core-seconds on every core), a 1 GB
// direct-I/O read then write, and an Iperf-like second of NIC line rate.
void table4(Report& out) {
  constexpr double kWorkPerCore = 8.0;
  constexpr std::size_t kStack = 0, kHulk = 1, kThor = 2;
  std::array<double, 3> cpu{}, latency{}, rd{}, wr{}, mbit{};
  std::vector<std::vector<std::string>> rows = {
      {"CPU (sec)/latency (ms)"}, {"I/O read (MB/s)"}, {"I/O write (MB/s)"}, {"Network (Mbit/s)"}};
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  for (std::size_t i : {kStack, kHulk, kThor}) {
    Node& node = cluster.node(cluster.nodes_of_class(std::array{"stack", "hulk", "thor"}[i])[0]);
    SimTime start = sim.now();
    for (int c = 0; c < node.spec().cores; ++c) {
      node.cpu().start(kWorkPerCore, node.spec().core_speed(), [] {});
    }
    sim.run(Simulator::kForever);
    cpu[i] = sim.now() - start;
    latency[i] = cpu[i] / kWorkPerCore * 10.0;  // per-event latency proxy
    for (auto [disk, mbps] : {std::pair{&node.disk_read(), &rd[i]},
                              std::pair{&node.disk_write(), &wr[i]}}) {
      start = sim.now();
      bool done = false;
      disk->start(1.0 * kGiB, 1.0, [&] { done = true; });
      sim.run(Simulator::kForever);
      *mbps = done ? 1024.0 / (sim.now() - start) : 0.0;
    }
    Bytes payload = node.net().capacity();
    start = sim.now();
    node.net().start(payload, 1.0, nullptr);
    sim.run(Simulator::kForever);
    mbit[i] = payload * 8.0 / 1e6 / (sim.now() - start);
    rows[0].push_back(f2(cpu[i]) + "/" + f2(latency[i]));
    rows[1].push_back(format_fixed(rd[i], 0));
    rows[2].push_back(format_fixed(wr[i], 0));
    rows[3].push_back(format_fixed(mbit[i], 0));
  }
  TextTable table({"SysBench", "stack", "hulk", "thor"});
  for (auto& row : rows) table.add_row(row);
  table.print(std::cout);

  out.claim(kPartial, "thor ≈ 5× faster on the CPU test, with the lowest latency",
            "thor " + f2(cpu[kThor]) + " s vs stack " + f2(cpu[kStack]) + " s (" +
                times(cpu[kStack] / cpu[kThor]) + ")",
            "thor has the lowest CPU time and latency",
            cpu[kThor] < std::min(cpu[kHulk], cpu[kStack]) &&
                latency[kThor] < std::min(latency[kHulk], latency[kStack]));
  greater_on(out, kYes, "hulk slightly better than stack on the CPU test", "stack", "hulk",
             {{"CPU test time", cpu[kStack], cpu[kHulk]}}, " s", 2);
  greater_on(out, kYes, "thor's SSD dominates read/write", "thor", "the next class",
             {{"read", rd[kThor], std::max(rd[kHulk], rd[kStack])},
              {"write", wr[kThor], std::max(wr[kHulk], wr[kStack])}},
             " MB/s", 0);
  out.claim(kYes, "Network uniform, ≈ 940 Mbit/s (the 1 GbE fabric levels hulk's NIC)",
            rows[3][3] + " Mbit/s on all three classes", "equal Mbit/s on all three classes",
            mbit[kStack] == mbit[kHulk] && mbit[kHulk] == mbit[kThor]);
}

// Fig 2: 4K x 4K matrix multiply under Spark on Hydra (the paper used its
// 2-node testbed; the shape is the same), sampled once per simulated second.
void fig2(Report& out) {
  SimulationConfig cfg;
  cfg.sample_utilization = true;
  Simulation sim(cfg);
  WorkloadParams params;
  params.input_gb = 0.125;  // 4Kx4K doubles = 128 MiB per matrix
  params.seed = 1;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = make_matmul(sim.cluster().node_ids(), params);
  SimTime makespan = sim.run(app);
  const UtilizationSampler* sampler = sim.sampler();

  std::cout << "makespan: " << f1(makespan) << " s\n\n";
  std::cout << "t(s)  cpu(%)  mem(GB)  net(MB/s)  disk(MB/s)\n";
  auto cpu = sampler->cpu_series(makespan);
  std::vector<std::vector<double>> mem, net, disk;
  Bytes read = 0.0, written = 0.0;
  for (NodeId id : sim.cluster().node_ids()) {
    mem.push_back(sampler->memory_used(id).resample(1.0, makespan));
    net.push_back(sampler->net_rate(id).resample(1.0, makespan));
    disk.push_back(sampler->disk_rate(id).resample(1.0, makespan));
    read += sim.cluster().node(id).disk_read().total_drained();
    written += sim.cluster().node(id).disk_write().total_drained();
  }
  std::size_t buckets = cpu[0].size(), cpu_peak_t = 0;
  double cpu_peak = 0.0, mem_peak = 0.0, mem_start = 0.0, mem_low = 0.0;
  double net_first = 0.0, net_mid = 0.0, net_last = 0.0;
  for (std::size_t t = 0; t < buckets; ++t) {
    double c = 0.0, m = 0.0, nn = 0.0, d = 0.0;
    for (std::size_t i = 0; i < mem.size(); ++i) {
      c += cpu[i][t];
      m += mem[i][t];
      nn += net[i][t];
      d += disk[i][t];
    }
    c = c / static_cast<double>(mem.size()) * 100.0;
    std::cout << t << "  " << f1(c) << "  " << f1(m / kGiB) << "  " << f1(nn / kMiB) << "  "
              << f1(d / kMiB) << "\n";
    if (c > cpu_peak) cpu_peak = c, cpu_peak_t = t;
    mem_peak = std::max(mem_peak, m);
    if (t == 0) mem_start = m;
    if (t == 1 || (t > 1 && m < mem_low)) mem_low = m;
    (t < buckets / 4 ? net_first : t < 3 * buckets / 4 ? net_mid : net_last) += nn;
  }
  double edge_ratio = (net_first + net_last) / std::max(1.0, 2.0 * net_mid);

  out.claim(kYes, "Memory high throughout, with an initial slope",
            "0 → peak " + f1(mem_peak / kGiB) + " GB; lowest after t=0: " + f1(mem_low / kGiB) +
                " GB",
            "memory rises from its t=0 level and stays above it to the end",
            mem_peak > mem_start && mem_low > mem_start);
  out.claim(kYes, "Network spikes at the beginning and end (shuffle/reduce)",
            "edge-vs-middle network ratio " + f2(edge_ratio),
            "mean edge-quarter traffic > middle-half traffic", edge_ratio > 1.0);
  out.claim(kYes, "Low disk reads, visible shuffle-write activity",
            f2(read / kGiB) + " GiB read vs " + f2(written / kGiB) + " GiB written",
            "bytes read < bytes written", read < written);
  out.claim(kPartial, "CPU spikes at the start and is highest in the final multiply stages",
            "peak " + format_fixed(cpu_peak, 0) + "% at t=" + std::to_string(cpu_peak_t) +
                " of " + std::to_string(buckets) + " s");
}

// Fig 3: PageRank (2 GB, one iteration) under Spark on the two-node
// motivation pair (node-1: 1.6 GHz + 1 GbE, node-2: 2.4 GHz + 10 GbE).
void fig3(Report& out) {
  SimulationConfig cfg;
  cfg.switch_bandwidth = gbit_per_s(10.0);  // so the NIC asymmetry matters
  {
    Simulator probe_sim;
    Cluster probe(probe_sim, gbit_per_s(10.0));
    build_motivation_pair(probe);
    for (NodeId id : probe.node_ids()) cfg.nodes.push_back(probe.node(id).spec());
  }
  Simulation sim(cfg);
  WorkloadParams params;
  params.input_gb = 2.0;
  params.iterations = 1;
  params.seed = 1;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = make_pagerank(sim.cluster().node_ids(), params);
  sim.run(app);

  // Per-task rows of one representative stage, the first pr-contrib stage.
  std::array<int, 2> tasks{0, 0};
  std::array<double, 2> compute{0.0, 0.0};
  std::map<StageId, std::pair<double, double>> run_range;  // fastest, slowest run time
  std::cout << "task  node    compute  shuffle  serialization  sched-delay  (seconds)\n";
  for (const auto& m : sim.scheduler().completed()) {
    auto& [fastest, slowest] =
        run_range.try_emplace(m.stage, m.run_time(), m.run_time()).first->second;
    fastest = std::min(fastest, m.run_time());
    slowest = std::max(slowest, m.run_time());
    if (m.stage_name != "pr-contrib" || m.stage > 2) continue;
    TaskBreakdown b = task_breakdown(m);
    tasks[static_cast<std::size_t>(m.node)]++;
    compute[static_cast<std::size_t>(m.node)] += b.compute;
    std::cout << m.task << "  node-" << (m.node + 1) << "  " << f2(b.compute) << "  "
              << f2(b.shuffle) << "  " << f2(b.serialization) << "  " << f2(b.scheduler_delay)
              << "\n";
  }
  StageId widest = 0;
  double spread = 0.0;
  for (const auto& [stage, range] : run_range) {
    if (range.second / range.first > spread) widest = stage, spread = range.second / range.first;
  }

  out.claim(kYes,
            "Tasks in one stage differ by large factors (up to ≈ 31×; gated at 10×, an order "
            "of magnitude)",
            times(spread) + " between the slowest and fastest task of stage " +
                std::to_string(widest),
            "slowest / fastest task run time within one stage ≥ 10", spread >= 10.0);
  out.claim(kYes, "Uneven task counts between the two nodes",
            "node-1 " + std::to_string(tasks[0]) + " vs node-2 " + std::to_string(tasks[1]) +
                " tasks in the first pr-contrib stage",
            "the two counts differ", tasks[0] != tasks[1]);
  greater_on(out, kYes,
             "Spark places tasks blind to CPU/NIC capability: compute piles onto the 1.6 GHz node",
             "node-1", "node-2", {{"compute seconds in that stage", compute[0], compute[1]}});
}

void fig5(Report& out) {
  std::vector<std::string> workloads;
  for (const WorkloadPreset& p : table3_workloads()) workloads.push_back(p.name);
  Cells cells = run(out, spark_vs_rupam(workloads, 5));
  TextTable table({"Workload", "Spark (s)", "±95% CI", "RUPAM (s)", "±95% CI", "Speedup",
                   "Spark failures", "Spark exec losses"});
  auto failed = [](const Outcome& o) { return o.failed_attempts; };
  auto lost = [](const Outcome& o) { return o.executor_losses; };
  double speedup_sum = 0.0, improvement_sum = 0.0, multi_sum = 0.0, other_sum = 0.0;
  std::map<std::string, double> speedup;
  std::vector<double> multi;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const std::string& w = workloads[i];
    const Reps& spark = cells[2 * i];
    const Reps& rupam = cells[2 * i + 1];
    double s = makespan(spark).mean, r = makespan(rupam).mean, x = s / r;
    table.add_row({w, f1(s), f1(makespan(spark).ci95), f1(r), f1(makespan(rupam).ci95),
                   f2(x) + "x", format_fixed(sum_of(spark, failed), 0),
                   format_fixed(sum_of(spark, lost), 0)});
    out.json.add("fig5_overall_" + w + "_spark_s", s);
    out.json.add("fig5_overall_" + w + "_rupam_s", r);
    out.json.add("fig5_overall_" + w + "_speedup", x);
    speedup[w] = x;
    speedup_sum += x;
    improvement_sum += 1.0 - 1.0 / x;
    bool iterative = table3_workloads()[i].iterations > 1 && w != "SQL";
    (iterative ? multi_sum : other_sum) += x;
    if (iterative) multi.push_back(x);
  }
  table.print(std::cout);
  out.fig5_table = table.to_string();
  auto n = static_cast<double>(workloads.size());
  double avg_improvement = improvement_sum / n * 100.0;
  out.json.add("fig5_overall_avg_improvement_pct", avg_improvement);
  out.json.add("fig5_overall_avg_speedup", speedup_sum / n);

  auto slowest = std::min_element(speedup.begin(), speedup.end(),
                                  [](const auto& a, const auto& b) { return a.second < b.second; });
  out.claim(kYes, "Every workload improves under RUPAM",
            "smallest speedup " + times(slowest->second) + " (" + slowest->first + ")",
            "speedup > 1 on all 7 workloads", slowest->second > 1.0);
  out.claim(kYes, "Average improvement ≈ 37.7%: RUPAM improves on average",
            f1(avg_improvement) + "% (paper 37.7%)", "mean improvement > 0", avg_improvement > 0.0);
  greater_on(out, kYes,
             "Multi-iteration workloads average ≈ 2.1×: LR/PR/TC/KMeans gain more than "
             "TeraSort/SQL/GM",
             "LR/PR/TC/KMeans", "the other three",
             {{"mean speedup", multi_sum / static_cast<double>(multi.size()),
               other_sum / (n - static_cast<double>(multi.size()))}},
             "×", 2);
  const Reps& pr_spark = cells[2 * 3];  // PR is Table III's fourth workload
  const Reps& pr_rupam = cells[2 * 3 + 1];
  greater_on(out, kYes,
             "PR is the extreme case: OOM failures/recovery under Spark and a large error bar",
             "Spark", "RUPAM on PR",
             {{"failed attempts", sum_of(pr_spark, failed), sum_of(pr_rupam, failed)},
              {"executor losses", sum_of(pr_spark, lost), sum_of(pr_rupam, lost)},
              {"95% CI (s)", makespan(pr_spark).ci95, makespan(pr_rupam).ci95}},
             "", 0);
  double multi_min = *std::min_element(multi.begin(), multi.end());
  out.claim(kYes, "GM improves only marginally (one iteration, nothing to learn)",
            "GM " + times(speedup["GM"]) + " (paper 1.014×); slowest multi-iteration " +
                times(multi_min),
            "GM speedup < every multi-iteration workload's", speedup["GM"] < multi_min);
  out.claim(kPartial, "LR ≈ 2× (read off the bars)", times(speedup["LR"]));
  out.claim(kPartial, "PR ≈ 2.5×, the largest gain", times(speedup["PR"]));
  out.claim(kPartial, "KMeans ≈ 2.49×", times(speedup["KMeans"]));
  out.claim(kPartial, "TeraSort ≈ 1.32×", times(speedup["TeraSort"]));
  out.claim(kPartial, "SQL ≈ 1.19×", times(speedup["SQL"]));
}

void fig6(Report& out) {
  const std::array<int, 7> iterations = {1, 2, 4, 6, 8, 10, 12};
  std::vector<Cell> lr;
  for (int iters : iterations) {
    for (Cell& c : spark_vs_rupam({"LR"}, 3, iters)) lr.push_back(std::move(c));
  }
  Cells cells = run(out, lr);
  TextTable table({"Iterations", "Spark (s)", "RUPAM (s)", "Speedup"});
  std::vector<double> speedup;
  bool grows = true;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    double s = makespan(cells[2 * i]).mean, r = makespan(cells[2 * i + 1]).mean;
    grows = grows && (speedup.empty() || s / r > speedup.back());
    speedup.push_back(s / r);
    std::string key = "fig6_iterations_iters_" + std::to_string(iterations[i]);
    out.json.add(key + "_spark_s", s);
    out.json.add(key + "_rupam_s", r);
    out.json.add(key + "_speedup", s / r);
    table.add_row({std::to_string(iterations[i]), f1(s), f1(r), f2(s / r) + "x"});
  }
  table.print(std::cout);
  double lowest = *std::min_element(speedup.begin(), speedup.end());
  out.claim(kYes, "Speedup grows with iteration count",
            times(speedup.front()) + " at 1 iteration → " + times(speedup.back()) + " at 12",
            "speedup rises at every step of 1, 2, 4, 6, 8, 10, 12 iterations", grows);
  out.claim(kYes, "RUPAM matches or outperforms Spark at every point", "smallest " + times(lowest),
            "speedup ≥ 1 at every point", lowest >= 1.0);
  out.claim(kPartial, "Speedup grows up to ≈ 3.4×",
            "largest " + times(*std::max_element(speedup.begin(), speedup.end())));
}

void table5(Report& out) {
  std::vector<std::string> workloads;
  for (const WorkloadPreset& p : table3_workloads()) workloads.push_back(p.name);
  Cells cells = run(out, spark_vs_rupam(workloads, 3));
  TextTable table({"Workload", "PROCESS Spark", "PROCESS RUPAM", "NODE Spark", "NODE RUPAM",
                   "ANY Spark", "ANY RUPAM"});
  // Spark ≥ RUPAM on PROCESS_LOCAL and RUPAM ≥ Spark on ANY on every
  // workload, strictly wherever either side is non-zero.
  auto dominates = [](std::size_t a, std::size_t b) { return a > b || (a == 0 && b == 0); };
  std::vector<std::string> process_more, process_equal;
  bool process_ok = true, any_ok = true, rack_zero = true;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    std::array<LocalityCounts, 2> c{};  // Spark, RUPAM: totals over replications
    for (std::size_t k = 0; k < 2; ++k) {
      for (const Outcome& o : cells[2 * i + k]) {
        for (int l = 0; l < kNumLocalityLevels; ++l) c[k][l] += o.locality[l];
      }
    }
    std::size_t reps = cells[2 * i].size();
    auto avg = [reps](std::size_t total) { return std::to_string(total / reps); };
    table.add_row({workloads[i], avg(c[0][0]), avg(c[1][0]), avg(c[0][1]), avg(c[1][1]),
                   avg(c[0][3]), avg(c[1][3])});
    (c[0][0] > c[1][0] ? process_more : process_equal).push_back(workloads[i]);
    process_ok = process_ok && dominates(c[0][0], c[1][0]);
    any_ok = any_ok && dominates(c[1][3], c[0][3]);
    rack_zero = rack_zero && c[0][2] == 0 && c[1][2] == 0;
  }
  table.print(std::cout);
  out.claim(kYes, "Spark has more PROCESS_LOCAL tasks on every workload",
            "Spark > RUPAM on " + join(process_more) + "; not on " + join(process_equal),
            "Spark ≥ RUPAM on all 7, > wherever either is non-zero", process_ok);
  out.claim(kYes, "RUPAM has more poorer-locality (ANY) tasks: the deliberate trade",
            any_ok ? "RUPAM > Spark on all 7" : "not on all 7",
            "RUPAM ≥ Spark on all 7, > wherever either is non-zero", any_ok);
  out.claim(kYes, "Zero RACK_LOCAL everywhere (single rack)",
            rack_zero ? "zero everywhere" : "non-zero somewhere",
            "RACK_LOCAL = 0 under both schedulers on all 7", rack_zero);
}

const std::vector<std::string> kFig78Workloads = {"LR", "SQL", "PR"};

void fig7(Report& out) {
  Cells cells = run(out, spark_vs_rupam(kFig78Workloads, 3));
  const std::array<std::pair<const char*, double Breakdown::*>, 5> categories = {
      {{"GC", &Breakdown::gc},
       {"Compute", &Breakdown::compute},
       {"Scheduler delay", &Breakdown::scheduler},
       {"Shuffle-disk", &Breakdown::shuffle_disk},
       {"Shuffle-net", &Breakdown::shuffle_net}}};
  enum { kGC, kCompute, kDelay, kDisk, kNet };
  std::array<std::array<std::array<double, 5>, 3>, 2> v{};  // [Spark|RUPAM][workload][category]
  for (std::size_t i = 0; i < kFig78Workloads.size(); ++i) {
    std::cout << "\n(" << kFig78Workloads[i] << ")\n";
    TextTable table({"Category", "Spark (s)", "RUPAM (s)"});
    for (std::size_t c = 0; c < categories.size(); ++c) {
      auto field = categories[c].second;
      for (std::size_t k = 0; k < 2; ++k) {
        v[k][i][c] = per_run(cells[2 * i + k], [field](const Outcome& o) {
          return o.breakdown.*field;
        });
      }
      table.add_row({categories[c].first, f1(v[0][i][c]), f1(v[1][i][c])});
    }
    table.print(std::cout);
  }
  // One category on workload i, Spark's value first or RUPAM's first.
  auto spark_vs = [&](std::size_t i, int c) {
    return Vs{kFig78Workloads[i], v[0][i][c], v[1][i][c]};
  };
  auto rupam_vs = [&](std::size_t i, int c) {
    return Vs{kFig78Workloads[i], v[1][i][c], v[0][i][c]};
  };
  greater_on(out, kNo, "Compute time improves (tasks land on more capable CPUs)", "Spark compute",
             "RUPAM's", {spark_vs(0, kCompute), spark_vs(1, kCompute), spark_vs(2, kCompute)});
  greater_on(out, kYes, "LR: Spark pays more shuffle-disk (no SSD awareness)",
             "Spark shuffle-disk", "RUPAM's", {spark_vs(0, kDisk)});
  greater_on(out, kYes, "LR/PR: RUPAM pays more shuffle-net (its ANY tasks fetch remotely)",
             "RUPAM shuffle-net", "Spark's", {rupam_vs(0, kNet), rupam_vs(2, kNet)});
  greater_on(out, kYes, "SQL: RUPAM has higher shuffle overhead (one-shot queries)",
             "RUPAM shuffle-disk + shuffle-net", "Spark's",
             {{"SQL", v[1][1][kDisk] + v[1][1][kNet], v[0][1][kDisk] + v[0][1][kNet]}});
  out.claim(kYes, "SQL: GC similar-or-higher under RUPAM (full-heap scans; similar = within 10%)",
            "SQL " + f1(v[1][1][kGC]) + " vs " + f1(v[0][1][kGC]) + " s",
            "RUPAM GC ≥ 0.9 × Spark's on SQL", v[1][1][kGC] >= 0.9 * v[0][1][kGC]);
  greater_on(out, kNo, "LR: GC lower under RUPAM (bigger cache, fewer LRU evictions)", "Spark GC",
             "RUPAM's", {spark_vs(0, kGC)});
  greater_on(out, kNo, "Scheduler delay moderate under RUPAM despite the bookkeeping",
             "Spark scheduler delay", "RUPAM's",
             {spark_vs(0, kDelay), spark_vs(1, kDelay), spark_vs(2, kDelay)});
}

void fig8(Report& out) {
  Cells cells = run(out, spark_vs_rupam(kFig78Workloads, 3, 0, /*sampled=*/true));
  TextTable table({"Workload", "Sched", "CPU user (%)", "Memory (GB)", "Network (MB/s)",
                   "Disk (KB/s)"});
  std::vector<Vs> cpu, memory, net, disk;  // per workload: Spark's value, RUPAM's
  for (std::size_t i = 0; i < kFig78Workloads.size(); ++i) {
    std::array<std::array<double, 4>, 2> v{};
    for (std::size_t k = 0; k < 2; ++k) {
      const Reps& reps = cells[2 * i + k];
      v[k] = {per_run(reps, [](const Outcome& o) { return o.avg_cpu; }),
              per_run(reps, [](const Outcome& o) { return o.avg_memory; }) / kGiB,
              per_run(reps, [](const Outcome& o) { return o.avg_net; }) / kMiB,
              per_run(reps, [](const Outcome& o) { return o.avg_disk; }) / kKiB};
      table.add_row({kFig78Workloads[i], k == 0 ? "Spark" : "RUPAM", bench::pct(v[k][0]),
                     f1(v[k][1]), f1(v[k][2]), format_fixed(v[k][3], 0)});
    }
    const std::string& w = kFig78Workloads[i];
    cpu.push_back({w, v[0][0] * 100.0, v[1][0] * 100.0});
    memory.push_back({w, v[1][1], v[0][1]});
    net.push_back({w, v[0][2], v[1][2]});
    disk.push_back({w, v[0][3], v[1][3]});
  }
  table.print(std::cout);
  greater_on(out, kYes, "RUPAM memory usage higher (per-node executor sizing)", "RUPAM memory",
             "Spark's", memory, " GB");
  greater_on(out, kYes, "RUPAM disk utilization lower (balanced)", "Spark disk rate", "RUPAM's",
             disk, " KB/s", 0);
  greater_on(out, kNo, "RUPAM CPU user % lower", "Spark CPU", "RUPAM's", cpu, "%");
  greater_on(out, kNo, "RUPAM network utilization lower", "Spark network rate", "RUPAM's", net,
             " MB/s");
}

void fig9(Report& out) {
  Cells cells = run(out, spark_vs_rupam({"PR"}, 1, 0, /*sampled=*/true));
  const Outcome& spark = cells[0][0];
  const Outcome& rupam = cells[1][0];
  // CPU, network, disk; network and disk print in MB/s.
  const std::array<double, 3> scale = {1.0, kMiB, kMiB};
  const std::array<MetricAggregate, 3> s = {aggregate_metric(spark.cpu_sd),
                                            aggregate_metric(spark.net_sd),
                                            aggregate_metric(spark.disk_sd)};
  const std::array<MetricAggregate, 3> r = {aggregate_metric(rupam.cpu_sd),
                                            aggregate_metric(rupam.net_sd),
                                            aggregate_metric(rupam.disk_sd)};
  std::cout << "t(s)  spark_cpu_sd  rupam_cpu_sd  spark_net_sd(MB/s)  rupam_net_sd(MB/s)\n";
  std::size_t len = std::min(spark.cpu_sd.size(), rupam.cpu_sd.size());
  for (std::size_t t = 0; t < len; t += std::max<std::size_t>(1, len / 40)) {
    std::cout << t << "  " << format_fixed(spark.cpu_sd[t], 3) << "  "
              << format_fixed(rupam.cpu_sd[t], 3) << "  " << f1(spark.net_sd[t] / kMiB) << "  "
              << f1(rupam.net_sd[t] / kMiB) << "\n";
  }
  TextTable table({"Metric", "Spark mean sd", "Spark peak sd", "RUPAM mean sd",
                   "RUPAM peak sd"});
  const std::array<const char*, 3> metrics = {"CPU util", "Network (MB/s)", "Disk (MB/s)"};
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    int d = m == 0 ? 3 : 1;
    table.add_row({metrics[m], format_fixed(s[m].mean / scale[m], d),
                   format_fixed(s[m].max / scale[m], d), format_fixed(r[m].mean / scale[m], d),
                   format_fixed(r[m].max / scale[m], d)});
  }
  std::cout << "\n";
  table.print(std::cout);

  greater_on(out, kYes, "Spark shows disk spikes in the late shuffle stages", "Spark", "RUPAM",
             {{"peak disk sd", s[2].max / kMiB, r[2].max / kMiB}}, " MB/s");
  greater_on(out, kNo, "Spark shows network spikes in the late shuffle stages", "Spark", "RUPAM",
             {{"peak net sd", s[1].max / kMiB, r[1].max / kMiB}}, " MB/s");
  greater_on(out, kNo, "RUPAM's stddev lower and stable overall", "Spark", "RUPAM",
             {{"mean CPU sd", s[0].mean, r[0].mean},
              {"mean net sd (MB/s)", s[1].mean / kMiB, r[1].mean / kMiB},
              {"mean disk sd (MB/s)", s[2].mean / kMiB, r[2].mean / kMiB}},
             "", 3);
}

// Each RUPAM mechanism, switched off on the workload that exercises it
// most; `off` is null on a workload's full-RUPAM reference row. Then
// Algorithm 1's only tunable, Res_factor, swept on LR.
struct AblationRow {
  const char* label;
  const char* workload;
  void (*off)(RupamConfig&);
};

const AblationRow kAblationRows[] = {
    {"full RUPAM", "LR", nullptr},
    {"no optexecutor lock", "LR", [](RupamConfig& c) { c.opt_executor_lock = false; }},
    {"full RUPAM", "PR", nullptr},
    {"no memory guard", "PR", [](RupamConfig& c) { c.memory_guard = false; }},
    {"no memory-straggler relocation", "PR", [](RupamConfig& c) { c.memory_straggler = false; }},
    {"full RUPAM", "KMeans", nullptr},
    {"no CPU/GPU dual-run race", "KMeans", [](RupamConfig& c) { c.gpu_cpu_race = false; }},
    {"full RUPAM", "TeraSort", nullptr},
    {"no over-commit (slot semantics)", "TeraSort", [](RupamConfig& c) { c.overcommit = false; }},
};

void ablation_rupam(Report& out) {
  const std::array<double, 5> res_factors = {1.2, 1.5, 2.0, 3.0, 4.0};
  std::vector<Cell> variants;
  for (const AblationRow& row : kAblationRows) {
    Cell& cell = variants.emplace_back(cell_of(row.workload, SchedulerKind::kRupam, 2));
    if (row.off != nullptr) cell.tweak = [off = row.off](SimulationConfig& c) { off(c.rupam); };
  }
  for (double rf : res_factors) {
    Cell& cell = variants.emplace_back(cell_of("LR", SchedulerKind::kRupam, 2));
    cell.tweak = [rf](SimulationConfig& c) { c.rupam.res_factor = rf; };
  }
  Cells cells = run(out, variants);

  TextTable table({"Variant", "Workload", "Makespan (s)", "vs full RUPAM"});
  std::map<std::string, double> full;
  std::vector<std::string> slowdowns;
  bool all_slower = true;
  std::size_t i = 0;
  for (const AblationRow& row : kAblationRows) {
    double seconds = makespan(cells[i++]).mean;
    if (row.off == nullptr) full[row.workload] = seconds;
    double rel = seconds / full[row.workload];
    table.add_row({row.label, row.workload, f1(seconds), f2(rel) + "x"});
    std::string slug = row.label;
    for (char& ch : slug) {
      if (ch == ' ' || ch == '/' || ch == '-' || ch == '(' || ch == ')') ch = '_';
    }
    out.json.add("ablation_rupam_" + std::string(row.workload) + "_" + slug + "_s", seconds);
    if (row.off == nullptr) continue;
    slowdowns.push_back(std::string(row.label) + " " + times(rel));
    all_slower = all_slower && rel > 1.0;
  }
  table.print(std::cout);
  std::cout << "\nRes_factor sensitivity (LR):\n";
  TextTable sweep({"Res_factor", "Makespan (s)"});
  for (double rf : res_factors) {
    double seconds = makespan(cells[i++]).mean;
    sweep.add_row({format_number(rf), f1(seconds)});
    out.json.add("ablation_rupam_LR_res_factor_" + format_number(rf) + "_s", seconds);
  }
  sweep.print(std::cout);
  out.claim(kYes,
            "Each RUPAM mechanism carries weight: switching it off slows the workload that "
            "exercises it (not a paper figure)",
            join(slowdowns), "every variant's makespan > full RUPAM's on its workload",
            all_slower);
}

// Spark and RUPAM on a homogeneous 12-node cluster with Hydra's aggregate
// resources (~208 cores, ~416 GB), then on Hydra itself.
void ablation_heterogeneity(Report& out) {
  const std::vector<std::string> workloads = {"LR", "TeraSort", "PR"};
  std::vector<NodeSpec> uniform(12);
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    NodeSpec& s = uniform[i];
    s.name = "uniform" + std::to_string(i);
    s.node_class = "uniform";
    s.cores = 17;
    s.cpu_ghz = 2.6;
    s.cpu_perf = 1.64;  // aggregate perf-cores / aggregate cores
    s.memory = 34 * kGiB;
    s.disk_read_bw = mib_per_s(275);  // capacity-weighted means
    s.disk_write_bw = mib_per_s(250);
    s.disk_capacity = 840 * kGiB;
  }
  std::vector<Cell> both;
  for (const std::string& w : workloads) {
    for (Cell& c : spark_vs_rupam({w}, 2)) {
      c.tweak = [uniform](SimulationConfig& cfg) { cfg.nodes = uniform; };
      both.push_back(std::move(c));
    }
    for (Cell& c : spark_vs_rupam({w}, 2)) both.push_back(std::move(c));
  }
  Cells cells = run(out, both);

  TextTable table({"Workload", "Homogeneous cluster", "Hydra (heterogeneous)"});
  std::vector<Vs> speedups;  // Hydra's, then the homogeneous cluster's
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    double homo = makespan(cells[4 * i]).mean / makespan(cells[4 * i + 1]).mean;
    double hydra = makespan(cells[4 * i + 2]).mean / makespan(cells[4 * i + 3]).mean;
    const std::string& w = workloads[i];
    table.add_row({w, f2(homo) + "x", f2(hydra) + "x"});
    out.json.add("ablation_heterogeneity_" + w + "_homogeneous_speedup", homo);
    out.json.add("ablation_heterogeneity_" + w + "_hydra_speedup", hydra);
    speedups.push_back({w, hydra, homo});
  }
  table.print(std::cout);
  bool premise = greater_on(out, kYes,
                            "RUPAM's gain comes from heterogeneity: larger on Hydra than on a "
                            "homogeneous cluster with Hydra's aggregate resources (the premise)",
                            "Hydra speedup", "homogeneous", speedups, "×", 2);
  out.json.add("ablation_heterogeneity_premise_holds", premise ? "yes" : "no");
}

void baselines(Report& out) {
  const std::array<SchedulerKind, 4> ladder = {SchedulerKind::kFifo, SchedulerKind::kSpark,
                                               SchedulerKind::kStageAware, SchedulerKind::kRupam};
  constexpr std::size_t kFifo = 0, kSpark = 1, kStageAware = 2, kRupam = 3;
  const std::vector<std::string> workloads = {"LR", "PR", "TeraSort"};
  std::vector<Cell> all;
  for (const std::string& w : workloads) {
    for (SchedulerKind kind : ladder) all.push_back(cell_of(w, kind, 3));
  }
  Cells cells = run(out, all);

  std::vector<std::array<double, 4>> mean(workloads.size());
  std::vector<Vs> fastest;  // best other scheduler's makespan, RUPAM's
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cout << "\n(" << workloads[w] << ")\n";
    TextTable table({"Scheduler", "Makespan (s)", "±95% CI", "vs RUPAM"});
    for (std::size_t k = 0; k < ladder.size(); ++k) mean[w][k] = makespan(cells[4 * w + k]).mean;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      std::string name(to_string(ladder[k]));
      table.add_row({name, f1(mean[w][k]), f1(makespan(cells[4 * w + k]).ci95),
                     f2(mean[w][k] / mean[w][kRupam]) + "x"});
      out.json.add("baselines_comparison_" + workloads[w] + "_" + name + "_s", mean[w][k]);
    }
    table.print(std::cout);
    fastest.push_back({workloads[w],
                       std::min({mean[w][kFifo], mean[w][kSpark], mean[w][kStageAware]}),
                       mean[w][kRupam]});
  }
  greater_on(out, kYes, "RUPAM is fastest on LR, PR and TeraSort (not a paper figure)",
             "the best other scheduler's makespan", "RUPAM's", fastest);
  greater_on(out, kYes, "Stage-level awareness recovers part of the gap on PR and TeraSort",
             "Spark makespan", "StageAware's",
             {{"PR", mean[1][kSpark], mean[1][kStageAware]},
              {"TeraSort", mean[2][kSpark], mean[2][kStageAware]}});
  out.claim(kYes,
            "…but not on LR, where tasks within a stage diverge: per-task characterization "
            "is what matters",
            "LR " + f1(mean[0][kStageAware]) + " vs " + f1(mean[0][kSpark]) + " s",
            "StageAware makespan ≥ Spark's on LR", mean[0][kStageAware] >= mean[0][kSpark]);
}

struct Artifact {
  const char* id;
  const char* title;
  const char* description;
  void (*report)(Report&);
};

const Artifact kArtifacts[] = {
    {"table2", "Table II", "Specifications of Hydra cluster nodes", table2},
    {"table3", "Table III", "Studied workloads and input sizes", table3},
    {"table4", "Table IV", "Hardware characteristics benchmarks (SysBench/Iperf-style)", table4},
    {"fig2", "Fig 2", "Resource utilization under 4K x 4K matrix multiplication", fig2},
    {"fig3", "Fig 3", "PageRank task breakdown on the 2-node motivation cluster", fig3},
    {"fig5", "Fig 5", "Overall performance: execution time, Spark vs RUPAM", fig5},
    {"fig6", "Fig 6", "LR speedup vs number of iterations (DB_task_char warm-up)", fig6},
    {"table5", "Table V", "Task counts per data-locality level", table5},
    {"fig7", "Fig 7", "Performance breakdown of LR, SQL, PR (seconds of task time)", fig7},
    {"fig8", "Fig 8", "Average node utilization for LR, SQL, PR", fig8},
    {"fig9", "Fig 9", "Cross-node utilization stddev over time (PageRank)", fig9},
    {"ablation_rupam", "Ablation", "RUPAM mechanisms toggled off, one at a time", ablation_rupam},
    {"ablation_heterogeneity", "Heterogeneity control",
     "Spark/RUPAM speedup on homogeneous vs heterogeneous clusters", ablation_heterogeneity},
    {"baselines", "Baselines", "FIFO vs Spark vs stage-level-aware vs RUPAM", baselines},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "paper: takes no arguments, got '" << argv[1] << "'\n";
    return 2;
  }
  Report report;
  try {
    for (const Artifact& a : kArtifacts) {
      bench::print_header(a.title, a.description);
      report.artifact = a.id;
      a.report(report);
      std::cout << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "paper: " << report.artifact << ": " << e.what() << "\n";
    return 1;
  }
  report.json.write();
  std::cout << "<!-- paper:begin -->\n"
            << "**Fig 5** (simulated seconds, mean and 95% CI over 5 runs)\n\n"
            << report.fig5_table << "\n"
            << "**Claims** (✅ rows are gated: `bench/paper` exits 1 when one fails)\n\n";
  report.claims.print(std::cout);
  std::cout << "<!-- paper:end -->\n";
  for (const std::string& failure : report.failures) {
    std::cerr << "paper: ✅ claim fails: " << failure << "\n";
  }
  return report.failures.empty() ? 0 : 1;
}
