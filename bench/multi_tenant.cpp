// Multi-tenant scheduling bench (not a paper figure — the paper runs one
// application at a time; this exercises the PR-2 scheduling core): N tenant
// pools submit short jobs open-loop (Poisson arrivals) while one long
// TeraSort batch job hogs the cluster from t=0. Compares short-job JCT
// under FIFO vs FAIR cross-job policies and under RUPAM with FAIR pools,
// against a no-batch-job baseline. The headline check: FAIR pulls the
// short jobs' p95 JCT well below FIFO's, because FIFO makes every later
// job queue behind the batch job's tasksets.
#include <optional>

#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "workloads/presets.hpp"

namespace {

using namespace rupam;

struct Scenario {
  // Horizon x rate keeps the open loop stable: past ~200 s at this rate the
  // short jobs saturate the cluster by themselves and the batch job's share
  // stops being the dominant term in their queueing.
  SimTime duration = 200.0;  // arrival horizon for the short jobs
  double rate = 0.04;        // short-job apps per second
  int tenants = 3;
  std::uint64_t seed = 1;
};

struct VariantResult {
  std::size_t short_jobs = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double queueing = 0.0;
  SimTime makespan = 0.0;
  KernelStats kernel{};
};

VariantResult run_variant(const Scenario& sc, SchedulerKind kind, PoolPolicy policy,
                          bool with_batch) {
  SimulationConfig cfg;
  cfg.scheduler = kind;
  cfg.seed = sc.seed;
  cfg.pools.policy = policy;
  Simulation sim(cfg);

  SubmissionStream stream;
  if (with_batch) {
    // Added first: under FIFO the batch job takes the lowest job ids, i.e.
    // strict priority over every later arrival — the regime FAIR fixes.
    stream.add(0.0,
               build_workload(workload_preset("TeraSort"), sim.cluster().node_ids(), sc.seed),
               "batch");
  }
  ArrivalConfig arrivals;
  arrivals.rate = sc.rate;
  arrivals.duration = sc.duration;
  arrivals.tenants = sc.tenants;
  arrivals.seed = sc.seed;
  arrivals.iterations_override = 1;  // keep the tenant jobs short
  arrivals.mix = {"GM", "PR"};
  append_poisson_arrivals(stream, arrivals, sim.cluster().node_ids());

  TenantRunReport report = sim.run(stream);
  VariantResult out;
  out.kernel = sim.sim().stats();
  out.makespan = report.makespan;
  std::vector<double> jcts;
  double queueing = 0.0;
  for (const JobCompletion& j : report.jobs) {
    if (j.pool == "batch") continue;
    jcts.push_back(j.jct());
    queueing += j.queueing_delay();
  }
  out.short_jobs = jcts.size();
  if (!jcts.empty()) {
    out.mean = mean_of(jcts);
    out.p50 = percentile_inplace(jcts, 50.0);
    out.p95 = percentile_inplace(jcts, 95.0);
    out.queueing = queueing / static_cast<double>(jcts.size());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rupam;
  Scenario sc;
  if (argc > 1) sc.duration = std::atof(argv[1]);  // smoke runs pass a short horizon
  if (argc > 2) sc.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
  bench::print_header("Multi-tenant",
                      "Short-job JCT under FIFO vs FAIR pools with a batch job");

  struct Variant {
    const char* label;
    const char* slug;
    SchedulerKind kind;
    PoolPolicy policy;
    bool with_batch;
  };
  const std::vector<Variant> variants = {
      {"shorts only (Spark)", "shorts_only", SchedulerKind::kSpark, PoolPolicy::kFair, false},
      {"Spark, FIFO + batch", "spark_fifo", SchedulerKind::kSpark, PoolPolicy::kFifo, true},
      {"Spark, FAIR + batch", "spark_fair", SchedulerKind::kSpark, PoolPolicy::kFair, true},
      {"RUPAM, FAIR + batch", "rupam_fair", SchedulerKind::kRupam, PoolPolicy::kFair, true},
  };

  bench::JsonReport json("multi_tenant");
  json.add("duration_s", sc.duration);
  json.add("arrival_rate", sc.rate);
  json.add("tenants", static_cast<double>(sc.tenants));

  TextTable table({"Variant", "Short jobs", "Mean JCT (s)", "p50 (s)", "p95 (s)",
                   "Queueing (s)", "Makespan (s)"});
  std::optional<VariantResult> fifo, fair;
  for (const Variant& v : variants) {
    VariantResult r = run_variant(sc, v.kind, v.policy, v.with_batch);
    json.record_kernel(r.kernel);
    table.add_row({v.label, std::to_string(r.short_jobs), format_fixed(r.mean, 1),
                   format_fixed(r.p50, 1), format_fixed(r.p95, 1),
                   format_fixed(r.queueing, 1), format_fixed(r.makespan, 1)});
    json.add(std::string(v.slug) + "_short_jobs", static_cast<double>(r.short_jobs));
    json.add(std::string(v.slug) + "_mean_jct_s", r.mean);
    json.add(std::string(v.slug) + "_p95_jct_s", r.p95);
    json.add(std::string(v.slug) + "_queueing_s", r.queueing);
    json.add(std::string(v.slug) + "_makespan_s", r.makespan);
    if (std::string(v.slug) == "spark_fifo") fifo = r;
    if (std::string(v.slug) == "spark_fair") fair = r;
  }
  table.print(std::cout);

  bool fair_wins = fair->p95 < fifo->p95;
  json.add("fair_beats_fifo_p95", fair_wins ? "yes" : "no");
  json.write();
  std::cout << "\nReading: under FIFO every short job queues behind the batch job's\n"
               "tasksets; FAIR gives each tenant pool its share of the cluster, so the\n"
               "short jobs' tail collapses toward the no-batch baseline.\n"
            << (fair_wins ? "[shape OK] " : "[shape MISMATCH] ") << "FAIR p95 "
            << format_fixed(fair->p95, 1) << "s vs FIFO p95 " << format_fixed(fifo->p95, 1)
            << "s\n";
  return fair_wins ? 0 : 1;
}
