// Tests for the obs/ layer: MetricsRegistry exposition, the dispatch
// decision audit across all four schedulers, task-phase span recording +
// Perfetto export, the overhead profiler, and the CLI flags that expose
// them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>

#include "app/cli.hpp"
#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/overhead.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

// ---------------------------------------------------------------- helpers

Application one_stage_app(std::vector<TaskSpec> tasks, const std::string& name = "s0",
                          StageId stage_id = 0) {
  Application app;
  Job job;
  job.id = 0;
  job.name = "job";
  Stage stage;
  stage.id = stage_id;
  stage.name = name;
  stage.tasks.stage = stage_id;
  stage.tasks.stage_name = name;
  for (auto& t : tasks) {
    t.stage = stage_id;
    t.stage_name = name;
    stage.tasks.tasks.push_back(t);
  }
  job.stages.push_back(std::move(stage));
  app.jobs.push_back(std::move(job));
  return app;
}

/// Map stage (0) feeding a reduce stage (1) through a shuffle — the
/// smallest app that exercises shuffle-read spans and flow arrows.
Application two_stage_app(int maps = 4, int reduces = 4) {
  Application app;
  Job job;
  job.id = 0;
  job.name = "job";
  Stage map;
  map.id = 0;
  map.name = "map";
  map.is_shuffle_map = true;
  map.tasks.stage = 0;
  map.tasks.stage_name = "map";
  map.tasks.is_shuffle_map = true;
  for (int i = 0; i < maps; ++i) {
    TaskSpec t;
    t.id = i;
    t.stage = 0;
    t.stage_name = "map";
    t.is_shuffle_map = true;
    t.partition = i;
    t.compute = 2.0;
    t.shuffle_write_bytes = 64.0 * kMiB;
    map.tasks.tasks.push_back(t);
  }
  Stage reduce;
  reduce.id = 1;
  reduce.name = "reduce";
  reduce.is_shuffle_map = false;
  reduce.parents = {0};
  reduce.tasks.stage = 1;
  reduce.tasks.stage_name = "reduce";
  reduce.tasks.is_shuffle_map = false;
  for (int i = 0; i < reduces; ++i) {
    TaskSpec t;
    t.id = 100 + i;
    t.stage = 1;
    t.stage_name = "reduce";
    t.partition = i;
    t.compute = 1.0;
    t.is_shuffle_map = false;
    t.shuffle_read_bytes = 32.0 * kMiB;
    t.shuffle_remote_fraction = 0.5;
    reduce.tasks.tasks.push_back(t);
  }
  job.stages.push_back(std::move(map));
  job.stages.push_back(std::move(reduce));
  app.jobs.push_back(std::move(job));
  return app;
}

std::size_t count_substr(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c_total", {{"k", "v"}}, "help");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same (name, labels) returns the same series.
  EXPECT_EQ(&reg.counter("c_total", {{"k", "v"}}), &c);
  EXPECT_NE(&reg.counter("c_total", {{"k", "w"}}), &c);

  Gauge& g = reg.gauge("g");
  g.set(4.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  Histogram& h = reg.histogram("h_seconds", {1.0, 5.0});
  h.observe(0.5);
  h.observe(1.0);  // le="1" is inclusive
  h.observe(3.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  auto cum = h.cumulative_counts();
  ASSERT_EQ(cum.size(), 3u);  // 1, 5, +Inf
  EXPECT_EQ(cum[0], 2u);
  EXPECT_EQ(cum[1], 3u);
  EXPECT_EQ(cum[2], 4u);
  EXPECT_EQ(reg.series_count(), 4u);
}

TEST(MetricsRegistry, HistogramRejectsMalformedBounds) {
  // Unsorted, duplicate, and non-finite bucket bounds would silently
  // misroute observations; construction must refuse them up front.
  EXPECT_THROW(Histogram({5.0, 1.0}), std::invalid_argument);           // unsorted
  EXPECT_THROW(Histogram({1.0, 1.0, 5.0}), std::invalid_argument);      // duplicate
  EXPECT_THROW(Histogram({1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);                                  // +Inf is implicit
  EXPECT_THROW(Histogram({std::nan("")}), std::invalid_argument);       // NaN
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad_seconds", {2.0, 2.0}), std::invalid_argument);
  // Valid ascending bounds (including an empty set — one +Inf bucket) pass.
  EXPECT_NO_THROW(Histogram({}));
  EXPECT_NO_THROW(Histogram({-1.0, 0.0, 2.5}));
}

TEST(MetricsRegistry, RejectsMalformedNamesAndTypeConflicts) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("1starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok", {{"bad-label", "v"}}), std::invalid_argument);
  reg.counter("taken");
  EXPECT_THROW(reg.gauge("taken"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("taken", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusExpositionIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("jobs_total", {}, "Jobs").inc(2.0);
  reg.gauge("busy", {{"node", "3"}, {"res", "cpu"}}, "Busy fraction").set(0.25);
  reg.histogram("delay_seconds", {0.1, 1.0}, {}, "Delay").observe(0.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  std::string text = os.str();

  EXPECT_NE(text.find("# HELP jobs_total Jobs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("jobs_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE busy gauge"), std::string::npos);
  EXPECT_NE(text.find("busy{node=\"3\",res=\"cpu\"} 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE delay_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("delay_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("delay_seconds_count 1"), std::string::npos);

  // Every line is a comment or `name{labels} value` / `name value`.
  std::regex sample(R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$)");
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(std::regex_match(line, sample)) << "bad exposition line: " << line;
  }
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("c_total", {{"detail", "say \"hi\"\nback\\slash"}}).inc();
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find(R"(detail="say \"hi\"\nback\\slash")"), std::string::npos);
}

TEST(MetricsRegistry, JsonExposition) {
  MetricsRegistry reg;
  reg.counter("jobs_total", {}, "Jobs").inc(2.0);
  reg.histogram("delay_seconds", {0.1, 1.0}, {}, "Delay").observe(0.5);
  std::ostringstream os;
  reg.write_json(os);
  std::string text = os.str();
  EXPECT_EQ(text.front(), '{');
  while (!text.empty() && text.back() == '\n') text.pop_back();
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"jobs_total\""), std::string::npos);
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"delay_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"histogram\""), std::string::npos);
}

TEST(MetricsRegistry, EndOfRunSimulationMetrics) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_metrics = true;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 24; ++i) {
    TaskSpec t;
    t.id = i;
    t.partition = static_cast<int>(i);
    t.compute = 2.0;
    tasks.push_back(t);
  }
  sim.run(one_stage_app(std::move(tasks)));
  ASSERT_NE(sim.metrics(), nullptr);
  std::ostringstream os;
  sim.metrics()->write_prometheus(os);
  std::string text = os.str();
  EXPECT_NE(text.find("rupam_sim_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("rupam_sim_stages_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("rupam_sim_tasks_launched_total"), std::string::npos);
  EXPECT_NE(text.find("rupam_sim_node_busy_fraction"), std::string::npos);
  EXPECT_NE(text.find("rupam_sim_task_runtime_seconds_bucket"), std::string::npos);
  // 24 launches across the locality label sets.
  double launched = 0.0;
  MetricsRegistry& reg = *sim.metrics();
  for (int l = 0; l < kNumLocalityLevels; ++l) {
    for (int s = 0; s < 2; ++s) {
      launched += reg
                      .counter("rupam_sim_tasks_launched_total",
                               {{"locality", std::string(to_string(static_cast<Locality>(l)))},
                                {"speculative", s != 0 ? "true" : "false"}})
                      .value();
    }
  }
  EXPECT_GE(launched, 24.0);
}

// ----------------------------------------------------------------- Audit

TEST(DecisionAudit, CsvEscapesAndJoinsCandidates) {
  DecisionAudit audit;
  DispatchDecision d;
  d.time = 1.25;
  d.scheduler = "RUPAM";
  d.stage = 3;
  d.task = 7;
  d.node = 2;
  d.queue = ResourceKind::kNetwork;
  d.reason = "rupam_heap_match";
  d.detail = "tag=I/O, queue=\"NET\"";  // comma + quotes must be escaped
  d.candidates_considered = 2;
  d.candidate_nodes = {2, 5};
  audit.record(d);
  std::ostringstream os;
  audit.write_csv(os);
  std::string text = os.str();
  EXPECT_NE(text.find("time,scheduler,stage,task,attempt,node,locality,pool,speculative,"
                      "queue,reason,candidates_considered,candidate_nodes,detail"),
            std::string::npos);
  EXPECT_NE(text.find("\"tag=I/O, queue=\"\"NET\"\"\""), std::string::npos);
  EXPECT_NE(text.find("2;5"), std::string::npos);

  std::ostringstream js;
  audit.write_json(js);
  EXPECT_EQ(js.str().front(), '[');
  EXPECT_NE(js.str().find("\"rupam_heap_match\""), std::string::npos);
}

// Count RFC 4180 records: newlines inside quoted fields do not end a row.
std::size_t csv_record_count(const std::string& text) {
  std::size_t records = 0;
  bool quoted = false;
  for (char c : text) {
    if (c == '"') quoted = !quoted;
    if (c == '\n' && !quoted) ++records;
  }
  return records;
}

TEST(DecisionAudit, ElasticFleetExportSurvivesDecommission) {
  // A spot revocation mid-run decommissions a node earlier decisions placed
  // work on. The export must stay valid: those records keep their (now
  // departed) node id, the CSV row count matches the audit size, and a
  // spot-drain reason carrying every RFC 4180 special round-trips escaped.
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_audit = true;
  cfg.enable_trace = true;
  cfg.faults = parse_fault_spec("spot@14:node=2:notice=4");
  Simulation sim(cfg);
  const WorkloadPreset& preset = workload_preset("TeraSort");
  WorkloadParams params;
  params.input_gb = preset.input_gb / 16.0;
  params.iterations = 1;
  params.seed = 5;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  sim.run(preset.factory(sim.cluster().node_ids(), params));

  ASSERT_EQ(sim.cluster().lifecycle(2), NodeLifecycle::kDecommissioned);
  ASSERT_NE(sim.audit(), nullptr);
  DecisionAudit audit = *sim.audit();  // copy; then append an escape-bait row
  std::size_t on_revoked = 0;
  for (const DispatchDecision& d : audit.decisions()) {
    if (d.node == 2) ++on_revoked;
  }
  EXPECT_GT(on_revoked, 0u) << "no decision ever placed work on the revoked node";

  DispatchDecision drain;
  drain.time = 18.0;
  drain.scheduler = "RUPAM";
  drain.stage = 9;
  drain.task = 1;
  drain.node = 2;
  drain.reason = "spot_drain, notice=\"4s\"";
  drain.detail = "relaunch from node 2,\nqueue=CPU";
  drain.candidates_considered = 1;
  drain.candidate_nodes = {2};
  audit.record(drain);

  std::ostringstream os;
  audit.write_csv(os);
  const std::string text = os.str();
  // Header + one row per decision, even with the embedded newline.
  EXPECT_EQ(csv_record_count(text), audit.size() + 1);
  EXPECT_NE(text.find("\"spot_drain, notice=\"\"4s\"\"\""), std::string::npos);
  EXPECT_NE(text.find("\"relaunch from node 2,\nqueue=CPU\""), std::string::npos);

  std::ostringstream js;
  audit.write_json(js);
  EXPECT_NE(js.str().find("\"spot_drain, notice=\\\"4s\\\"\""), std::string::npos);
  EXPECT_NE(js.str().find("\\n"), std::string::npos);  // newline stays escaped
}

TEST(DecisionAudit, OneRecordPerLaunchForEveryScheduler) {
  for (SchedulerKind kind : {SchedulerKind::kFifo, SchedulerKind::kSpark,
                             SchedulerKind::kStageAware, SchedulerKind::kRupam}) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    cfg.enable_audit = true;
    Simulation sim(cfg);
    Application app = build_workload(workload_preset("GM"), sim.cluster().node_ids(), 1, 2,
                                     hdfs_placement_weights(sim.cluster()));
    sim.run(app);
    ASSERT_NE(sim.audit(), nullptr);
    EXPECT_EQ(sim.audit()->size(), sim.scheduler().launches())
        << "scheduler " << to_string(kind);
    for (const DispatchDecision& d : sim.audit()->decisions()) {
      EXPECT_FALSE(d.reason.empty());
      EXPECT_GE(d.node, 0);
      EXPECT_GE(d.candidates_considered, 1);
      EXPECT_EQ(d.scheduler, sim.scheduler().name());
    }
  }
}

TEST(DecisionAudit, RupamRecordsTagQueueAndHeapRank) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_audit = true;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("GM"), sim.cluster().node_ids(), 1, 2,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  std::size_t heap_matches = 0;
  for (const DispatchDecision& d : sim.audit()->decisions()) {
    if (d.reason != "rupam_heap_match") continue;
    ++heap_matches;
    EXPECT_NE(d.detail.find("tag="), std::string::npos);
    EXPECT_NE(d.detail.find("queue="), std::string::npos);
    EXPECT_NE(d.detail.find("rank="), std::string::npos);
    EXPECT_FALSE(d.candidate_nodes.empty());
  }
  EXPECT_GT(heap_matches, 0u);
}

TEST(DecisionAudit, GpuTaskPlacedOnGpuNodeFromGpuQueue) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_audit = true;
  cfg.nodes = {thor_spec(), stack_spec()};  // node 1 is the only GPU host
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 4; ++i) {
    TaskSpec t;
    t.id = i;
    t.partition = static_cast<int>(i);
    t.compute = 30.0;
    t.gpu_accelerable = true;
    tasks.push_back(t);
  }
  sim.run(one_stage_app(std::move(tasks), "gpu_stage"));
  bool gpu_queue_on_gpu_node = false;
  for (const DispatchDecision& d : sim.audit()->decisions()) {
    if (d.queue == ResourceKind::kGpu) {
      EXPECT_EQ(d.node, 1) << "GPU-queue dispatch landed on a GPU-less node";
      gpu_queue_on_gpu_node = true;
    }
  }
  EXPECT_TRUE(gpu_queue_on_gpu_node);
}

TEST(DecisionAudit, SparkRecordsDelaySchedulingLevels) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.enable_audit = true;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("GM"), sim.cluster().node_ids(), 1, 2,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  std::size_t delay_records = 0;
  for (const DispatchDecision& d : sim.audit()->decisions()) {
    if (d.reason != "spark_delay_scheduling") continue;
    ++delay_records;
    EXPECT_NE(d.detail.find("allowed="), std::string::npos);
    EXPECT_NE(d.detail.find("taken="), std::string::npos);
  }
  EXPECT_GT(delay_records, 0u);
}

// ----------------------------------------------------------------- Spans

TEST(SpanTrace, RecordsPhasesForEveryAttempt) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.enable_spans = true;
  Simulation sim(cfg);
  sim.run(two_stage_app());
  SpanTrace* spans = sim.spans();
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->count(TaskPhase::kQueued), 8u);   // 4 maps + 4 reduces
  EXPECT_EQ(spans->count(TaskPhase::kCompute), 8u);
  EXPECT_EQ(spans->count(TaskPhase::kShuffleWrite), 4u);
  EXPECT_GT(spans->count(TaskPhase::kShuffleDiskRead) +
                spans->count(TaskPhase::kShuffleNetRead),
            0u);
  for (const PhaseSpan& s : spans->spans()) {
    EXPECT_LE(s.start, s.end);
    EXPECT_GE(s.node, 0);
  }
}

TEST(SpanTrace, PerfettoExportHasLanesSlicesAndBalancedFlows) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.enable_spans = true;
  Simulation sim(cfg);
  sim.run(two_stage_app());
  std::ostringstream os;
  sim.spans()->write_perfetto(os);
  std::string text = os.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);   // per-node lanes
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);  // duration slices
  EXPECT_NE(text.find("\"cat\": \"attempt\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"phase\""), std::string::npos);
  // Map → reduce flow arrows: starts and finishes must pair up.
  std::size_t flow_starts = count_substr(text, "\"ph\": \"s\"");
  std::size_t flow_ends = count_substr(text, "\"ph\": \"f\"");
  EXPECT_GT(flow_starts, 0u);
  EXPECT_EQ(flow_starts, flow_ends);
}

TEST(SpanTrace, DisabledByDefaultAndNeverPerturbsResult) {
  SimulationConfig base;
  base.scheduler = SchedulerKind::kRupam;
  Simulation plain(base);
  SimTime t_plain = plain.run(two_stage_app());
  EXPECT_EQ(plain.spans(), nullptr);

  SimulationConfig obs = base;
  obs.enable_spans = true;
  obs.enable_metrics = true;
  obs.enable_audit = true;
  Simulation instrumented(obs);
  SimTime t_obs = instrumented.run(two_stage_app());
  // Instrumentation must not change the simulated outcome at all.
  EXPECT_DOUBLE_EQ(t_plain, t_obs);

  // Nor does analysis, which only copies ids: the Fig 3 scenario (PageRank
  // under Spark on the slow/fast pair) gives a byte-identical event trace
  // with it on and off.
  auto fig3_trace = [](bool analysis) {
    SimulationConfig cfg;
    cfg.scheduler = SchedulerKind::kSpark;
    cfg.switch_bandwidth = gbit_per_s(10.0);
    {
      Simulator probe_sim;
      Cluster probe(probe_sim, gbit_per_s(10.0));
      build_motivation_pair(probe);
      for (NodeId id : probe.node_ids()) cfg.nodes.push_back(probe.node(id).spec());
    }
    cfg.enable_trace = true;
    cfg.enable_analysis = analysis;
    cfg.enable_spans = analysis;
    cfg.enable_audit = analysis;
    Simulation sim(cfg);
    WorkloadParams params;
    params.input_gb = 2.0;
    params.iterations = 5;
    params.seed = 1;
    params.placement_weights = hdfs_placement_weights(sim.cluster());
    sim.run(make_pagerank(sim.cluster().node_ids(), params));
    std::ostringstream csv;
    sim.trace()->write_csv(csv);
    return csv.str();
  };
  EXPECT_EQ(fig3_trace(/*analysis=*/true), fig3_trace(/*analysis=*/false));
}

// -------------------------------------------------------------- Profiler

TEST(OverheadProfiler, CountsDecisionPathSections) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  OverheadProfiler profiler;
  sim.set_profiler(&profiler);
  Application app = build_workload(workload_preset("GM"), sim.cluster().node_ids(), 1, 2,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  EXPECT_EQ(profiler.section(ProfileSection::kDispatch).count,
            static_cast<std::uint64_t>(sim.scheduler().dispatch_rounds()));
  EXPECT_GT(profiler.section(ProfileSection::kEnqueue).count, 0u);
  // The scope wraps delivered beats only. Without faults only RUPAM's
  // memory check can act on a beat, and GM never leaves a node below the
  // low-memory watermark with two tasks on it: no beat is delivered.
  EXPECT_EQ(profiler.section(ProfileSection::kHeartbeat).count, 0u);
  // RUPAM refreshes and sorts its node heaps inside dispatch rounds.
  EXPECT_GT(profiler.section(ProfileSection::kHeapMaintenance).count, 0u);
  profiler.reset();
  EXPECT_EQ(profiler.section(ProfileSection::kDispatch).count, 0u);
}

TEST(OverheadProfiler, NullScopeIsFree) {
  SectionStats before;
  {
    OverheadProfiler::Scope scope(nullptr, ProfileSection::kDispatch);
  }
  OverheadProfiler profiler;
  {
    OverheadProfiler::Scope scope(&profiler, ProfileSection::kEnqueue);
  }
  EXPECT_EQ(profiler.section(ProfileSection::kEnqueue).count, 1u);
  EXPECT_EQ(profiler.section(ProfileSection::kDispatch).count, before.count);
}

// ------------------------------------------------------------------- CLI

TEST(CliObservability, ParsesFlags) {
  std::ostringstream err;
  auto opts = parse_cli({"--metrics-out", "/tmp/m.prom", "--explain", "/tmp/a.csv",
                         "--trace-perfetto", "/tmp/p.json"},
                        err);
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->metrics_out, "/tmp/m.prom");
  EXPECT_EQ(opts->explain_out, "/tmp/a.csv");
  EXPECT_EQ(opts->trace_perfetto, "/tmp/p.json");
  EXPECT_NE(cli_usage().find("--metrics-out"), std::string::npos);
  EXPECT_NE(cli_usage().find("--explain"), std::string::npos);
  EXPECT_NE(cli_usage().find("--trace-perfetto"), std::string::npos);
}

TEST(CliObservability, WritesAllThreeExports) {
  std::string dir = ::testing::TempDir();
  std::string metrics_path = dir + "rupam_obs_metrics.prom";
  std::string explain_path = dir + "rupam_obs_audit.csv";
  std::string perfetto_path = dir + "rupam_obs_spans.json";
  CliOptions opts;
  opts.run.workload = "GM";
  opts.run.iterations = 2;
  opts.metrics_out = metrics_path;
  opts.explain_out = explain_path;
  opts.trace_perfetto = perfetto_path;
  std::ostringstream out, err;
  ASSERT_EQ(run_cli(opts, out, err), 0) << err.str();

  auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  std::string metrics = slurp(metrics_path);
  EXPECT_NE(metrics.find("# TYPE rupam_sim_tasks_launched_total counter"),
            std::string::npos);
  std::string audit = slurp(explain_path);
  EXPECT_NE(audit.find("time,scheduler,stage,task"), std::string::npos);
  EXPECT_NE(audit.find("rupam_"), std::string::npos);  // rupam_* reason tokens
  std::string spans = slurp(perfetto_path);
  EXPECT_NE(spans.find("\"traceEvents\""), std::string::npos);
  std::remove(metrics_path.c_str());
  std::remove(explain_path.c_str());
  std::remove(perfetto_path.c_str());
}

TEST(CliObservability, JsonVariantsBySuffix) {
  std::string dir = ::testing::TempDir();
  std::string metrics_path = dir + "rupam_obs_metrics.json";
  std::string explain_path = dir + "rupam_obs_audit.json";
  CliOptions opts;
  opts.run.workload = "GM";
  opts.run.iterations = 1;
  opts.run.scheduler = SchedulerKind::kFifo;
  opts.metrics_out = metrics_path;
  opts.explain_out = explain_path;
  std::ostringstream out, err;
  ASSERT_EQ(run_cli(opts, out, err), 0) << err.str();
  std::ifstream m(metrics_path), a(explain_path);
  std::string mfirst, afirst;
  std::getline(m, mfirst);
  std::getline(a, afirst);
  EXPECT_FALSE(mfirst.empty());
  EXPECT_EQ(mfirst[0], '{');
  EXPECT_FALSE(afirst.empty());
  EXPECT_EQ(afirst[0], '[');
  std::remove(metrics_path.c_str());
  std::remove(explain_path.c_str());
}

}  // namespace
}  // namespace rupam
