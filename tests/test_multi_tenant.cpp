// Multi-tenant scheduling core: concurrent applications in one
// DagScheduler, disjoint id namespaces via SubmissionStream, FAIR vs FIFO
// cross-job policies, determinism of the arrival driver, and fault
// recovery with more than one job in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "app/arrivals.hpp"
#include "common/stats.hpp"
#include "fault_invariants.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

TaskSpec make_task(TaskId id, StageId stage, int partition) {
  TaskSpec t;
  t.id = id;
  t.stage = stage;
  t.stage_name = "s" + std::to_string(stage);
  t.partition = partition;
  return t;
}

Stage make_stage(StageId id, int tasks, std::vector<StageId> parents, TaskId base) {
  Stage s;
  s.id = id;
  s.name = "s" + std::to_string(id);
  s.parents = std::move(parents);
  s.tasks.stage = id;
  s.tasks.stage_name = s.name;
  for (int i = 0; i < tasks; ++i) s.tasks.tasks.push_back(make_task(base + i, id, i));
  return s;
}

/// Two-job application occupying ids [base, base+2) for jobs/stages and
/// [10*base, ...) for tasks.
Application two_job_app(const std::string& name, int base) {
  Application app;
  app.name = name;
  for (int j = 0; j < 2; ++j) {
    Job job;
    job.id = base + j;
    job.name = name + "_job" + std::to_string(j);
    job.stages.push_back(make_stage(base + j, 2, {}, 10 * (base + j)));
    app.jobs.push_back(std::move(job));
  }
  return app;
}

struct DagHarness {
  Simulator sim;
  std::vector<StageId> submitted;
  DagScheduler dag{sim, [this](const TaskSet& ts) { submitted.push_back(ts.stage); }};

  void finish_stage(const Application& app, StageId stage) {
    for (const auto& job : app.jobs) {
      for (const auto& s : job.stages) {
        if (s.id != stage) continue;
        for (const auto& t : s.tasks.tasks) dag.on_partition_success(stage, t.partition);
      }
    }
  }
};

TEST(MultiTenantDag, ConcurrentAppsInterleaveButJobsStaySequential) {
  Application a = two_job_app("A", 0);
  Application b = two_job_app("B", 2);
  DagHarness h;
  int done = 0;
  h.dag.submit_app(a, [&] { ++done; });
  h.dag.submit_app(b, [&] { ++done; });

  // Both apps' first jobs are in flight at once...
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0, 2}));
  EXPECT_EQ(h.dag.active_jobs(), 2u);
  EXPECT_EQ(h.dag.active_job_ids(), (std::vector<JobId>{0, 2}));

  // ...but each app's second job waits for its first.
  h.finish_stage(a, 0);
  EXPECT_EQ(h.submitted, (std::vector<StageId>{0, 2, 1}));
  EXPECT_EQ(h.dag.jobs_completed(), 1u);
  EXPECT_EQ(done, 0);

  h.finish_stage(b, 2);
  h.finish_stage(b, 3);
  EXPECT_EQ(done, 1);  // B finished while A's job 1 still runs
  EXPECT_EQ(h.dag.apps_completed(), 1u);
  EXPECT_FALSE(h.dag.finished());

  h.finish_stage(a, 1);
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(h.dag.finished());
  EXPECT_EQ(h.dag.jobs_completed(), 4u);
  EXPECT_EQ(h.dag.apps_completed(), 2u);
}

TEST(MultiTenantDag, RejectsStageIdCollisions) {
  Application a = two_job_app("A", 0);
  Application b = two_job_app("B", 0);  // same stage ids as A
  DagHarness h;
  h.dag.submit_app(a, nullptr);
  EXPECT_THROW(h.dag.submit_app(b, nullptr), std::invalid_argument);
}

TEST(SubmissionStream, RemapsIdsAndCacheKeysDisjointly) {
  std::vector<NodeId> nodes{0, 1, 2, 3};
  const WorkloadPreset& gm = workload_preset("GM");
  SubmissionStream stream;
  stream.add(0.0, build_workload(gm, nodes, 1), "tenant0");
  stream.add(5.0, build_workload(gm, nodes, 1), "tenant1");  // identical build
  ASSERT_EQ(stream.size(), 2u);

  std::map<StageId, int> stage_ids;
  std::map<TaskId, int> task_ids;
  std::vector<std::string> cache_keys[2];
  for (int i = 0; i < 2; ++i) {
    const Application& app = stream.items()[i].app;
    EXPECT_EQ(app.pool, "tenant" + std::to_string(i));
    app.validate();
    for (const Job& job : app.jobs) {
      for (const Stage& stage : job.stages) {
        ++stage_ids[stage.id];
        EXPECT_EQ(stage.tasks.pool, app.pool);
        for (const TaskSpec& task : stage.tasks.tasks) {
          ++task_ids[task.id];
          if (!task.input_cache_key.empty()) cache_keys[i].push_back(task.input_cache_key);
        }
      }
    }
  }
  for (const auto& [id, count] : stage_ids) EXPECT_EQ(count, 1) << "stage id " << id;
  for (const auto& [id, count] : task_ids) EXPECT_EQ(count, 1) << "task id " << id;
  // Same workload, same seed — but namespaced cache keys must not collide.
  for (const std::string& key : cache_keys[0]) {
    EXPECT_EQ(key.rfind("a0_", 0), 0u) << key;
    EXPECT_EQ(std::count(cache_keys[1].begin(), cache_keys[1].end(), key), 0) << key;
  }
}

Application shrunk_workload(Simulation& sim, const char* name, std::uint64_t seed,
                            int iterations = 0, double shrink = 16.0) {
  const WorkloadPreset& preset = workload_preset(name);
  WorkloadParams params;
  params.input_gb = preset.input_gb / shrink;
  params.iterations = iterations > 0 ? iterations : std::min(preset.iterations, 2);
  params.seed = seed;
  return preset.factory(sim.cluster().node_ids(), params);
}

std::string tenant_trace_csv(PoolPolicy policy) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.pools.policy = policy;
  cfg.enable_trace = true;
  Simulation sim(cfg);
  SubmissionStream stream;
  stream.add(0.0, shrunk_workload(sim, "TeraSort", 3), "batch");
  stream.add(2.0, shrunk_workload(sim, "GM", 4), "tenant0");
  stream.add(6.0, shrunk_workload(sim, "GM", 5), "tenant1");
  TenantRunReport report = sim.run(stream);
  EXPECT_EQ(report.jobs.size(), stream.items()[0].app.jobs.size() + 2);
  EXPECT_GT(report.overall.p95, 0.0);
  std::ostringstream csv;
  sim.trace()->write_csv(csv);
  return csv.str();
}

TEST(MultiTenantSimulation, FixedStreamReproducesByteIdenticalTrace) {
  for (PoolPolicy policy : {PoolPolicy::kFifo, PoolPolicy::kFair}) {
    std::string first = tenant_trace_csv(policy);
    std::string second = tenant_trace_csv(policy);
    EXPECT_GT(first.size(), 0u);
    EXPECT_EQ(first, second) << to_string(policy)
                             << ": same stream must replay identically";
  }
}

// A stream run steps through the same loop as begin(app)/finish(): one run
// at a time, and the same max_sim_time abort.
TEST(MultiTenantSimulation, StreamRunSharesTheSingleAppRunLoop) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  Simulation sim(cfg);
  Application app = shrunk_workload(sim, "GM", 1);
  SubmissionStream stream;
  stream.add(0.0, shrunk_workload(sim, "GM", 2), "tenant0");
  sim.begin(app);
  EXPECT_THROW(sim.run(stream), std::runtime_error);
  EXPECT_GT(sim.finish(), 0.0);

  cfg.max_sim_time = 1.0;
  Simulation capped(cfg);
  SubmissionStream capped_stream;
  capped_stream.add(0.0, shrunk_workload(capped, "GM", 3), "tenant0");
  try {
    capped.run(capped_stream);
    FAIL() << "a stream run past max_sim_time must abort";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("max_sim_time"), std::string::npos) << e.what();
  }
}

TEST(MultiTenantSimulation, PoissonDriverIsDeterministic) {
  ArrivalConfig cfg;
  cfg.rate = 0.1;
  cfg.duration = 100.0;
  cfg.tenants = 2;
  cfg.seed = 9;
  std::vector<NodeId> nodes{0, 1, 2, 3};
  SubmissionStream a = make_poisson_stream(cfg, nodes);
  SubmissionStream b = make_poisson_stream(cfg, nodes);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.items()[i].at, b.items()[i].at);
    EXPECT_EQ(a.items()[i].app.name, b.items()[i].app.name);
    EXPECT_EQ(a.items()[i].app.pool, b.items()[i].app.pool);
  }
  cfg.seed = 10;
  SubmissionStream c = make_poisson_stream(cfg, nodes);
  bool identical = c.size() == a.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = c.items()[i].at == a.items()[i].at;
  }
  EXPECT_FALSE(identical) << "different seeds must draw different arrivals";
}

/// Three small nodes (12 slots total): policy order only matters when jobs
/// actually contend for slots — on full Hydra the shrunk workloads all
/// launch immediately and FIFO/FAIR coincide.
std::vector<NodeSpec> tiny_cluster() {
  std::vector<NodeSpec> nodes;
  for (int i = 0; i < 3; ++i) {
    NodeSpec s;
    s.name = "tiny" + std::to_string(i);
    s.node_class = "tiny";
    s.cores = 4;
    s.cpu_ghz = 2.5;
    s.cpu_perf = 1.0;
    s.memory = 16 * kGiB;
    s.net_bandwidth = gbit_per_s(1.0);
    s.has_ssd = false;
    s.disk_read_bw = mib_per_s(200);
    s.disk_write_bw = mib_per_s(180);
    s.disk_capacity = 500 * kGiB;
    s.gpus = 0;
    nodes.push_back(std::move(s));
  }
  return nodes;
}

double short_job_p95(PoolPolicy policy) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.pools.policy = policy;
  cfg.nodes = tiny_cluster();
  Simulation sim(cfg);
  SubmissionStream stream;
  // A long batch job first (lowest job ids = FIFO priority), then a train
  // of genuinely short jobs (PR /16 runs ~55s solo; the batch ~230s).
  stream.add(0.0, shrunk_workload(sim, "TeraSort", 3, 0, 2.0), "batch");
  for (int i = 0; i < 4; ++i) {
    stream.add(10.0 + 15.0 * i, shrunk_workload(sim, "PR", 10 + i, 1),
               "tenant" + std::to_string(i % 2));
  }
  TenantRunReport report = sim.run(stream);
  std::vector<double> jcts;
  for (const JobCompletion& j : report.jobs) {
    if (j.pool != "batch") jcts.push_back(j.jct());
  }
  EXPECT_GE(jcts.size(), 4u);  // PR submits one job per action (>= 1 per app)
  return percentile(jcts, 95.0);
}

TEST(MultiTenantSimulation, FairShrinksShortJobTailVsFifo) {
  double fifo = short_job_p95(PoolPolicy::kFifo);
  double fair = short_job_p95(PoolPolicy::kFair);
  EXPECT_LT(fair, fifo) << "FAIR must cut the short jobs' p95 JCT under a batch job";
}

TEST(MultiTenantChaos, FaultsWithConcurrentJobsKeepCompletionInvariants) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.chaos_seed = 7;
  Simulation sim(cfg);
  SubmissionStream stream;
  stream.add(0.0, shrunk_workload(sim, "TeraSort", 7), "batch");
  stream.add(5.0, shrunk_workload(sim, "LR", 8), "tenant0");
  TenantRunReport report = sim.run(stream);
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_FALSE(sim.injector()->plan().empty());

  // The two applications overlapped — at least two jobs were concurrent.
  SimTime batch_start = 1e300, batch_end = 0.0, tenant_start = 1e300, tenant_end = 0.0;
  for (const JobCompletion& j : report.jobs) {
    SimTime& start = j.pool == "batch" ? batch_start : tenant_start;
    SimTime& end = j.pool == "batch" ? batch_end : tenant_end;
    start = std::min(start, j.submitted);
    end = std::max(end, j.finished);
  }
  EXPECT_LT(batch_start, tenant_end);
  EXPECT_LT(tenant_start, batch_end);

  // Every partition of both apps completed exactly 1 + recomputes times.
  std::map<std::pair<StageId, int>, int> completions;
  for (const auto& m : sim.scheduler().completed()) ++completions[{m.stage, m.partition}];
  std::size_t total_tasks = 0;
  for (const TimedSubmission& s : stream.items()) total_tasks += s.app.total_tasks();
  EXPECT_EQ(completions.size(), total_tasks);
  const auto& recomputes = sim.dag().recompute_counts();
  for (const auto& [key, count] : completions) {
    auto it = recomputes.find(key);
    int expected = 1 + (it == recomputes.end() ? 0 : it->second);
    EXPECT_EQ(count, expected) << "stage " << key.first << " partition " << key.second;
  }
  EXPECT_EQ(sim.scheduler().active_stages(), 0u);
  EXPECT_TRUE(sim.dag().finished());
}

}  // namespace
}  // namespace rupam
