// diagnose_replay: the observability and replay layers used the way an
// operator diagnoses one slow run. SQL under stock Spark on the paper's
// Fig 3 motivation pair (one slow-CPU node, one fast) is run with every
// sink on; every export format is written to a scratch directory; then
// analyze_run, a mid-run checkpoint and its restore, a scheduler=rupam
// branch and a what-if pass follow — for 48 seeds a pass.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/run_spec.hpp"
#include "bench.hpp"
#include "cluster/fleet.hpp"
#include "common/json_reader.hpp"
#include "replay/checkpoint.hpp"
#include "replay/whatif.hpp"

namespace perfbench {

using namespace rupam;

namespace {

FleetSpec motivation_pair() {
  return parse_fleet_json(R"({
    "name": "motivation-pair", "seed": 1, "switch_gbps": 10,
    "classes": [
      {"name": "slow-cpu", "count": 1, "base": "thor", "cores": 16, "cpu_ghz": 1.6,
       "cpu_perf": 0.67, "memory_gb": 48, "net_gbps": 1, "ssd": false},
      {"name": "fast-cpu", "count": 1, "base": "thor", "cores": 16, "cpu_ghz": 2.4,
       "cpu_perf": 1.0, "memory_gb": 48, "net_gbps": 10, "ssd": false}
    ]
  })");
}

SimulationConfig all_sinks(const RunSpec& spec) {
  SimulationConfig cfg = make_simulation_config(spec);
  cfg.enable_trace = true;
  cfg.enable_metrics = true;
  cfg.enable_audit = true;
  cfg.enable_spans = true;
  cfg.enable_analysis = true;
  return cfg;
}

class DiagnoseReplay final : public Workload {
 public:
  DiagnoseReplay(std::uint64_t seed, bool smoke, const std::string& scratch)
      : out_dir_(scratch + "/diagnose") {
    std::filesystem::create_directories(out_dir_);
    const int seeds = smoke ? 1 : 48;
    for (int k = 0; k < seeds; ++k) {
      RunSpec spec;
      spec.workload = "SQL";
      spec.workload_explicit = true;
      spec.scheduler = SchedulerKind::kSpark;
      spec.fleet_spec = motivation_pair();
      spec.seed = mix_seed(seed, static_cast<std::uint64_t>(k));
      specs_.push_back(spec);
    }
    if (!smoke) {
      tail_pct = 90;
      min_ops = 100;
    }
  }

  void run_pass(Pass& pass) override {
    for (const RunSpec& spec : specs_) {
      Operation op(pass, "bench.op");
      try {
        diagnose(pass, op, spec);
      } catch (const std::exception& e) {
        op.fail("seed " + std::to_string(spec.seed) + ": " + e.what());
      }
    }
  }

  /// Record share: the same run with every sink on vs every sink off.
  void after_traced_pass(Pass& pass) override {
    for (const RunSpec& spec : specs_) {
      Operation op(pass, "bench.op");
      try {
        double on_s = 0.0, off_s = 0.0;
        SimTime on = loop_only(all_sinks(spec), spec, on_s);
        SimTime off = loop_only(make_simulation_config(spec), spec, off_s);
        op.check(on == off, "sinks changed the simulated makespan");
        pass.record_on_s += on_s;
        pass.record_off_s += off_s;
      } catch (const std::exception& e) {
        op.fail(std::string("record share: ") + e.what());
      }
    }
  }

 private:
  static SimTime loop_only(const SimulationConfig& cfg, const RunSpec& spec, double& loop_s) {
    Simulation sim(cfg);
    Application app = make_run_application(spec, sim);
    const std::int64_t t0 = now_ns();
    sim.begin(app);
    SimTime makespan = sim.finish();
    loop_s = static_cast<double>(now_ns() - t0) / 1e9;
    return makespan;
  }

  /// Serialize one export, write it to the scratch directory, and check
  /// it is non-empty (and parses, for JSON formats). Returns the text.
  template <class Write>
  std::string export_one(Pass& pass, Operation& op, std::string_view span_name, const char* file,
                  bool json, Write&& write) {
    std::string text;
    {
      SpanScope span(pass.spans, span_name, op.run());
      std::ostringstream os;
      write(os);
      text = os.str();
      std::ofstream(out_dir_ + "/" + file, std::ios::binary) << text;
    }
    pass.export_bytes += static_cast<double>(text.size());
    op.check(!text.empty(), std::string(file) + " export is empty");
    if (json) {
      try {
        parse_json(text);
      } catch (const std::exception& e) {
        op.fail(std::string(file) + " does not parse: " + e.what());
      }
    }
    return text;
  }

  void diagnose(Pass& pass, Operation& op, const RunSpec& spec) {
    const std::string label = "SQL/Spark/pair/seed" + std::to_string(spec.seed);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Simulation> sim;
    {
      SpanScope span(pass.spans, "app.construct", op.run());
      sim = std::make_unique<Simulation>(all_sinks(spec));
    }
    Application app;
    {
      SpanScope span(pass.spans, "workloads.build", op.run());
      app = make_run_application(spec, *sim);
    }
    pass.setup_s += static_cast<double>(now_ns() - t0) / 1e9;
    pass.inputs += label + " " + exact(app_fingerprint(app)) + "\n";

    const std::int64_t loop0 = now_ns();
    const SimTime makespan = run_application(pass, op, *sim, app, label, false);
    pass.straight_s += static_cast<double>(now_ns() - loop0) / 1e9;

    export_one(pass, op, "obs.export.trace_csv", "trace.csv", false,
               [&](std::ostream& os) { sim->trace()->write_csv(os); });
    export_one(pass, op, "obs.export.chrome", "trace.chrome.json", true,
               [&](std::ostream& os) { sim->trace()->write_chrome_tracing(os); });
    export_one(pass, op, "obs.export.perfetto", "spans.perfetto.json", true,
               [&](std::ostream& os) { sim->spans()->write_perfetto(os); });
    export_one(pass, op, "obs.export.audit", "audit.json", true,
               [&](std::ostream& os) { sim->audit()->write_json(os); });
    export_one(pass, op, "obs.export.metrics", "metrics.json", true,
               [&](std::ostream& os) { sim->metrics()->write_json(os); });

    RunArtifacts artifacts;
    {
      SpanScope span(pass.spans, "app.run_artifacts", op.run());
      artifacts = sim->run_artifacts();
    }
    RunDiagnosis diagnosis;
    {
      SpanScope span(pass.spans, "obs.analyze_run", op.run());
      diagnosis = analyze_run(artifacts);
    }
    op.check(tiling_residual(diagnosis) <= 1e-9, label + ": JCT tiling residual > 1e-9");
    for (const JobCompletion& job : artifacts.jobs) pass.jcts.push_back(job.jct());
    const std::string diagnosis_json =
        export_one(pass, op, "obs.export.diagnosis", "diagnosis.json", true,
                   [&](std::ostream& os) { write_diagnosis_json(diagnosis, os); });

    // Checkpoint at half the makespan, JSON round trip, restore, finish.
    Checkpoint cp;
    {
      SpanScope span(pass.spans, "replay.capture_checkpoint", op.run());
      cp = parse_checkpoint_json(checkpoint_to_json(capture_checkpoint(spec, makespan / 2.0)));
    }
    SimTime restored = 0.0;
    {
      const std::int64_t r0 = now_ns();
      SpanScope span(pass.spans, "replay.restore", op.run());
      ReplayRun run = restore_checkpoint(cp);
      op.check(pin_prefix(*run.sim->audit(), cp.time) == cp.pins,
               label + ": restored decision prefix differs from the pins");
      restored = run.sim->finish();
      pass.restore_s += static_cast<double>(now_ns() - r0) / 1e9;
    }
    op.check(!cp.pins.empty(), label + ": checkpoint pinned no decisions");
    op.check(restored == makespan, label + ": restored makespan " + exact(restored) +
                                       " != straight " + exact(makespan));

    RunOutcome base = summarize_outcome(*sim, makespan);
    BranchReport branch;
    {
      SpanScope span(pass.spans, "replay.run_branch", op.run());
      branch = run_branch(spec, parse_branch_spec("scheduler=rupam"), &base);
    }
    const SimTime rupam = branch.branch.makespan;
    op.check(std::isfinite(rupam) && rupam > 0.0, label + ": branch makespan not finite > 0");
    pass.rupam_makespans.push_back(rupam);

    WhatIfReport whatif;
    {
      SpanScope span(pass.spans, "replay.advise_whatif", op.run());
      WhatIfConfig config;
      config.max_candidates = 3;
      config.threads = 1;
      whatif = advise_whatif(spec, parse_diagnosis_stragglers(diagnosis_json), config);
    }
    op.check(whatif.base.makespan == makespan, label + ": what-if base run differs");
    op.check(!whatif.findings.empty(), label + ": what-if found no candidates");

    pass.digest += label + " stragglers=" + std::to_string(diagnosis.stragglers.size()) +
                   " pins=" + std::to_string(cp.pins.size()) + " restored=" + exact(restored) +
                   " rupam_branch=" + exact(rupam) + " whatif=";
    for (const WhatIfFinding& f : whatif.findings) {
      pass.digest += f.branch.label + ":" + exact(f.p95_jct_saving) + ",";
    }
    pass.digest += "\n";
  }

  std::string out_dir_;
  std::vector<RunSpec> specs_;
};

}  // namespace

std::unique_ptr<Workload> make_diagnose_replay(std::uint64_t seed, bool smoke,
                                               const std::string& scratch) {
  return std::make_unique<DiagnoseReplay>(seed, smoke, scratch);
}

}  // namespace perfbench
