#include "replay/branch.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "obs/analyzer.hpp"

namespace rupam {

namespace {

[[noreturn]] void branch_error(const std::string& message) {
  throw std::runtime_error("branch spec: " + message);
}

std::vector<std::string> split_fields(const std::string& text) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(text);
  while (std::getline(ss, field, ':')) fields.push_back(field);
  return fields;
}

/// "key=value" → (key, value); throws when there is no '='.
std::pair<std::string, std::string> split_kv(const std::string& field) {
  std::size_t eq = field.find('=');
  if (eq == std::string::npos || eq == 0) {
    branch_error("expected key=value, got '" + field + "'");
  }
  return {field.substr(0, eq), field.substr(eq + 1)};
}

/// An id at its own width: int for stage, node and attempt, long long for
/// task.
template <typename T>
T parse_id(const std::string& value, const std::string& what) {
  std::optional<T> v = parse_number<T>(value);
  if (!v) branch_error(what + " must be an integer, got '" + value + "'");
  return *v;
}

BranchSpec parse_node_override(const std::vector<std::string>& fields, const std::string& text) {
  BranchSpec spec;
  spec.kind = BranchKind::kNodeOverride;
  spec.label = text;
  bool have_stage = false, have_task = false, have_node = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    auto [key, value] = split_kv(fields[i]);
    if (key == "stage") {
      spec.stage = parse_id<StageId>(value, "stage");
      have_stage = true;
    } else if (key == "task") {
      spec.task = parse_id<long long>(value, "task");
      have_task = true;
    } else if (key == "node") {
      spec.node = parse_id<NodeId>(value, "node");
      have_node = true;
    } else if (key == "attempt") {
      spec.attempt = parse_id<AttemptId>(value, "attempt");
    } else {
      branch_error("unknown node-override key '" + key + "'");
    }
  }
  if (!have_stage || !have_task || !have_node) {
    branch_error("node override needs stage=, task= and node=");
  }
  if (spec.node < 0) branch_error("node must be >= 0");
  return spec;
}

BranchSpec parse_suppress(const std::vector<std::string>& fields, const std::string& text) {
  BranchSpec spec;
  spec.kind = BranchKind::kSuppressFault;
  spec.label = text;
  bool have_kind = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    auto [key, value] = split_kv(fields[i]);
    if (key == "kind") {
      // A recovery undoes a fault; the grammar only suppresses faults.
      std::optional<FaultKind> kind = fault_kind_from_name(value);
      if (!kind || *kind == FaultKind::kRecover) {
        branch_error("unknown fault kind '" + value +
                     "' (expected crash|slow|hbdrop|degrade|spot)");
      }
      spec.fault = *kind;
      have_kind = true;
    } else if (key == "node") {
      spec.fault_node = parse_id<NodeId>(value, "node");
    } else {
      branch_error("unknown suppress key '" + key + "'");
    }
  }
  if (!have_kind) branch_error("suppress needs kind=");
  return spec;
}

/// Build the intervened run: spec's config + forced replay observability
/// (analysis outputs are the whole point of a branch) + the optional
/// pre-begin hook that installs the dispatch interceptor.
ReplayRun launch_with(const RunSpec& spec, SimulationConfig cfg,
                      const std::function<void(Simulation&)>& prepare) {
  if (spec.arrivals > 0.0) {
    throw std::runtime_error("branch: multi-tenant runs (arrivals > 0) cannot be branched");
  }
  cfg.enable_audit = true;
  cfg.enable_spans = true;
  cfg.enable_trace = true;
  cfg.enable_analysis = true;
  ReplayRun run;
  run.sim = std::make_unique<Simulation>(cfg);
  if (prepare) prepare(*run.sim);
  run.app = std::make_unique<Application>(make_run_application(spec, *run.sim));
  run.sim->begin(*run.app);
  return run;
}

void write_outcome(const RunOutcome& o, JsonWriter& w) {
  w.begin_object();
  w.key("makespan_s").raw(json_number(o.makespan, 12));
  w.key("jct_mean_s").raw(json_number(o.jct.mean, 12));
  w.key("jct_p50_s").raw(json_number(o.jct.p50, 12));
  w.key("jct_p95_s").raw(json_number(o.jct.p95, 12));
  w.key("jct_p99_s").raw(json_number(o.jct.p99, 12));
  w.key("jct_max_s").raw(json_number(o.jct.max, 12));
  w.key("jct_queueing_s").raw(json_number(o.jct.mean_queueing, 12));
  w.key("stragglers").value(static_cast<unsigned long long>(o.stragglers));
  w.key("task_launches").value(static_cast<unsigned long long>(o.launches));
  w.key("task_failures").value(static_cast<unsigned long long>(o.failures));
  w.key("oom_kills").value(static_cast<unsigned long long>(o.oom_kills));
  w.key("executor_losses").value(static_cast<unsigned long long>(o.executor_losses));
  w.key("relocations").value(static_cast<unsigned long long>(o.relocations));
  w.key("recomputed_partitions").value(static_cast<unsigned long long>(o.recomputed_partitions));
  w.end_object();
}

std::string_view kind_name(BranchKind kind) {
  switch (kind) {
    case BranchKind::kNodeOverride: return "node_override";
    case BranchKind::kScheduler: return "scheduler";
    case BranchKind::kSuppressFault: return "suppress_fault";
  }
  return "?";
}

}  // namespace

RunOutcome summarize_outcome(Simulation& sim, SimTime makespan, double analyze_k) {
  RunOutcome o;
  o.scheduler = sim.scheduler().name();
  o.makespan = makespan;
  RunArtifacts artifacts = sim.run_artifacts();
  o.jct = summarize_jct(artifacts.jobs);
  AnalyzerConfig acfg;
  acfg.straggler_k = analyze_k;
  o.stragglers = analyze_run(artifacts, acfg).stragglers.size();
  o.launches = sim.audit()->size();
  o.failures = sim.scheduler().failures().size();
  o.oom_kills = sim.total_oom_kills();
  o.executor_losses = sim.total_executor_losses();
  o.relocations = sim.scheduler().relocations();
  o.recomputed_partitions = sim.recomputed_partitions();
  return o;
}

BranchSpec parse_branch_spec(const std::string& text) {
  if (text.empty()) branch_error("empty spec");
  std::vector<std::string> fields = split_fields(text);
  if (fields.empty()) branch_error("empty spec");
  const std::string& head = fields[0];
  if (head == "node") return parse_node_override(fields, text);
  if (head == "suppress") return parse_suppress(fields, text);
  if (head.rfind("scheduler=", 0) == 0) {
    if (fields.size() != 1) branch_error("scheduler= takes no further fields");
    BranchSpec spec;
    spec.kind = BranchKind::kScheduler;
    spec.label = text;
    std::string name = head.substr(std::string("scheduler=").size());
    auto kind = scheduler_kind_from_name(name);
    if (!kind) branch_error("unknown scheduler '" + name + "'");
    spec.scheduler = *kind;
    return spec;
  }
  branch_error("expected node:..., scheduler=NAME, or suppress:... (got '" + head + "')");
}

std::string outcome_to_json(const RunOutcome& outcome) {
  std::ostringstream os;
  JsonWriter w(os);
  write_outcome(outcome, w);
  os << "\n";
  return os.str();
}

RunOutcome run_base(const RunSpec& spec, double analyze_k) {
  ReplayRun run = launch_with(spec, make_simulation_config(spec), nullptr);
  SimTime makespan = run.sim->finish();
  return summarize_outcome(*run.sim, makespan, analyze_k);
}

RunOutcome run_branch_side(const RunSpec& spec, const BranchSpec& branch, double analyze_k) {
  SimulationConfig cfg = make_simulation_config(spec);
  std::function<void(Simulation&)> prepare;
  switch (branch.kind) {
    case BranchKind::kScheduler:
      cfg.scheduler = branch.scheduler;
      break;
    case BranchKind::kNodeOverride:
      prepare = [b = branch](Simulation& sim) {
        // One-shot: mark applied on the first (stage, task, attempt)
        // match whether or not the forced launch sticks — a dead target
        // node must not pin every retry into a livelock.
        auto applied = std::make_shared<bool>(false);
        sim.set_dispatch_interceptor(
            [b, applied](StageId stage, TaskId task, AttemptId attempt,
                         NodeId chosen) -> std::optional<NodeId> {
              if (*applied) return std::nullopt;
              if (stage != b.stage || task != b.task || attempt != b.attempt) {
                return std::nullopt;
              }
              *applied = true;
              if (chosen == b.node) return std::nullopt;  // counterfactual == factual
              return b.node;
            });
      };
      break;
    case BranchKind::kSuppressFault: {
      // Expand the seeded chaos plan into explicit events so they are
      // filterable, then drop everything the branch suppresses. With
      // nothing suppressed this reproduces the base plan bit for bit
      // (same merge order and sort the Simulation constructor applies).
      FaultPlan plan = cfg.faults;
      if (cfg.chaos_seed != 0) {
        std::size_t nodes = cfg.nodes.empty() ? 12 : cfg.nodes.size();
        FaultPlan chaos = make_chaos_plan(cfg.chaos_seed, nodes);
        plan.events.insert(plan.events.end(), chaos.events.begin(), chaos.events.end());
        cfg.chaos_seed = 0;
      }
      plan.events.erase(
          std::remove_if(plan.events.begin(), plan.events.end(),
                         [&branch](const FaultEvent& e) {
                           return e.kind == branch.fault &&
                                  (branch.fault_node == kInvalidNode ||
                                   e.node == branch.fault_node);
                         }),
          plan.events.end());
      plan.sort();
      cfg.faults = std::move(plan);
      break;
    }
  }
  ReplayRun run = launch_with(spec, std::move(cfg), prepare);
  SimTime makespan = run.sim->finish();
  return summarize_outcome(*run.sim, makespan, analyze_k);
}

BranchReport run_branch(const RunSpec& spec, const BranchSpec& branch, const RunOutcome* base,
                        double analyze_k) {
  BranchReport report;
  report.spec = branch;
  report.base = base != nullptr ? *base : run_base(spec, analyze_k);
  report.branch = run_branch_side(spec, branch, analyze_k);
  report.comparison =
      compare_json_text(outcome_to_json(report.base), outcome_to_json(report.branch));
  return report;
}

void write_branch_report_json(const BranchReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("branch").value(report.spec.label);
  w.key("kind").value(kind_name(report.spec.kind));
  w.key("base_scheduler").value(report.base.scheduler);
  w.key("branch_scheduler").value(report.branch.scheduler);
  w.key("p95_jct_saving_s").raw(json_number(report.p95_jct_saving(), 12));
  w.key("makespan_saving_s").raw(json_number(report.makespan_saving(), 12));
  w.key("base");
  write_outcome(report.base, w);
  w.key("branch_run");
  write_outcome(report.branch, w);
  std::ostringstream comparison;
  write_comparison_json(report.comparison, comparison);
  std::string rendered = comparison.str();
  while (!rendered.empty() && (rendered.back() == '\n' || rendered.back() == ' ')) {
    rendered.pop_back();
  }
  w.key("comparison").raw(rendered);
  w.end_object();
  os << "\n";
}

}  // namespace rupam
