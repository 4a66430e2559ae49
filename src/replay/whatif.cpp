#include "replay/whatif.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "sweep/work_queue.hpp"

namespace rupam {

namespace {

constexpr JsonFieldReader kWhatif("whatif: ");

DiagnosedStraggler parse_straggler(const JsonValue& v, std::size_t index) {
  const std::string what = "stragglers[" + std::to_string(index) + "]";
  DiagnosedStraggler s;
  for (const auto& [key, value] : kWhatif.object(v, what)) {
    if (key == "stage") {
      s.stage = kWhatif.integer<StageId>(value, what + ".stage");
    } else if (key == "task") {
      s.task = kWhatif.integer<long long>(value, what + ".task");
    } else if (key == "attempt") {
      s.attempt = kWhatif.integer<AttemptId>(value, what + ".attempt");
    } else if (key == "node") {
      s.node = kWhatif.integer<NodeId>(value, what + ".node");
    } else if (key == "duration") {
      s.duration = kWhatif.number(value, what + ".duration");
    } else if (key == "stage_median") {
      s.stage_median = kWhatif.number(value, what + ".stage_median");
    } else if (key == "cause") {
      s.cause = kWhatif.string(value, what + ".cause");
    } else if (key == "detail") {
      s.detail = kWhatif.string(value, what + ".detail");
    } else if (key == "node_class" || key == "ratio") {
      // Present in the document, irrelevant to branch generation.
    } else {
      kWhatif.fail(what + ": unknown key '" + key + "'");
    }
  }
  if (s.cause.empty()) kWhatif.fail(what + " missing \"cause\"");
  return s;
}

double excess(const DiagnosedStraggler& s) {
  return std::max(0.0, s.duration - s.stage_median);
}

/// The fleet's fastest node by cpu_perf (ties to the lowest id) — the
/// slow-node counterfactual target.
NodeId best_cpu_node(const RunSpec& spec) {
  SimulationConfig cfg = make_simulation_config(spec);
  std::vector<NodeSpec> nodes =
      cfg.nodes.empty() ? generate_fleet(hydra_fleet_spec()) : cfg.nodes;
  NodeId best = 0;
  double best_perf = -1.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].cpu_perf > best_perf) {
      best_perf = nodes[i].cpu_perf;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

BranchSpec scheduler_branch(SchedulerKind kind) {
  BranchSpec b;
  b.kind = BranchKind::kScheduler;
  b.scheduler = kind;
  b.label = "scheduler=" + std::string(scheduler_cli_name(kind));
  return b;
}

BranchSpec suppress_branch(const std::string& kind_token) {
  BranchSpec b = parse_branch_spec("suppress:kind=" + kind_token);
  return b;
}

BranchSpec override_branch(const DiagnosedStraggler& s, NodeId target) {
  std::ostringstream label;
  label << "node:stage=" << s.stage << ":task=" << s.task << ":node=" << target;
  if (s.attempt != 0) label << ":attempt=" << s.attempt;
  return parse_branch_spec(label.str());
}

std::string blame(const DiagnosedStraggler& s) {
  std::ostringstream os;
  os << s.cause << ": task " << s.task << " of stage " << s.stage << " on node " << s.node
     << " ran " << json_number(s.duration, 3) << "s vs stage median "
     << json_number(s.stage_median, 3) << "s";
  return os.str();
}

}  // namespace

std::vector<DiagnosedStraggler> parse_diagnosis_stragglers(const std::string& text) {
  JsonValue doc = kWhatif.parse(text);
  const JsonValue::Object& diagnosis = kWhatif.object(doc, "diagnosis");
  auto stragglers = diagnosis.find("stragglers");
  if (stragglers == diagnosis.end()) kWhatif.fail("diagnosis has no \"stragglers\" array");
  const JsonValue::Array& rows = kWhatif.array(stragglers->second, "\"stragglers\"");
  std::vector<DiagnosedStraggler> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out.push_back(parse_straggler(rows[i], i));
  return out;
}

std::vector<std::pair<BranchSpec, std::string>> propose_branches(
    const RunSpec& spec, const std::vector<DiagnosedStraggler>& stragglers,
    std::size_t max_candidates) {
  // Rank causes by their total excess time over the stage median — the
  // seconds the run demonstrably lost to each cause.
  std::map<std::string, double> cause_excess;
  std::map<std::string, const DiagnosedStraggler*> cause_worst;
  for (const DiagnosedStraggler& s : stragglers) {
    cause_excess[s.cause] += excess(s);
    const DiagnosedStraggler*& worst = cause_worst[s.cause];
    if (worst == nullptr || excess(s) > excess(*worst)) worst = &s;
  }
  std::vector<std::pair<std::string, double>> causes(cause_excess.begin(), cause_excess.end());
  std::stable_sort(causes.begin(), causes.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });

  std::vector<std::pair<BranchSpec, std::string>> proposals;
  auto add = [&proposals](BranchSpec b, std::string motivation) {
    for (const auto& [existing, why] : proposals) {
      (void)why;
      if (existing.label == b.label) return;  // dedupe, first motivation wins
    }
    proposals.emplace_back(std::move(b), std::move(motivation));
  };

  for (const auto& [cause, total] : causes) {
    (void)total;
    const DiagnosedStraggler& worst = *cause_worst[cause];
    if (cause == "slow_node_class") {
      // The paper's Fig 3 case: redirect the blamed dispatch to the
      // fastest node, and let RUPAM make that choice everywhere.
      add(override_branch(worst, best_cpu_node(spec)), blame(worst));
      if (spec.scheduler != SchedulerKind::kRupam) {
        add(scheduler_branch(SchedulerKind::kRupam), blame(worst));
      }
    } else if (cause == "node_fault") {
      add(suppress_branch("crash"), blame(worst));
    } else if (cause == "spot_drain") {
      add(suppress_branch("spot"), blame(worst));
    } else if (spec.scheduler != SchedulerKind::kRupam) {
      // gc_pressure / shuffle_skew / gpu_contention / pool_preemption /
      // blacklist_rebound / unknown: placement-quality causes RUPAM's
      // heterogeneity awareness addresses wholesale.
      add(scheduler_branch(SchedulerKind::kRupam), blame(worst));
    }
  }
  // Always offer the classic list-scheduling yardstick.
  if (spec.scheduler != SchedulerKind::kHeft) {
    add(scheduler_branch(SchedulerKind::kHeft), "baseline: upward-rank list scheduling");
  }
  if (proposals.size() > max_candidates) proposals.resize(max_candidates);
  return proposals;
}

WhatIfReport advise_whatif(const RunSpec& spec, const std::vector<DiagnosedStraggler>& stragglers,
                           const WhatIfConfig& config) {
  WhatIfReport report;
  report.base = run_base(spec, config.analyze_k);
  auto proposals = propose_branches(spec, stragglers, config.max_candidates);

  // Branch replays are independent cells on the sweep engine's worker
  // pool, with results written into pre-sized slots so thread scheduling
  // cannot reorder the aggregation.
  std::vector<WhatIfFinding> findings(proposals.size());
  parallel_for(proposals.size(), config.threads, [&](std::size_t index) {
    WhatIfFinding& f = findings[index];
    f.branch = proposals[index].first;
    f.motivation = proposals[index].second;
    f.outcome = run_branch_side(spec, f.branch, config.analyze_k);
    f.p95_jct_saving = report.base.jct.p95 - f.outcome.jct.p95;
    f.makespan_saving = report.base.makespan - f.outcome.makespan;
  });

  std::stable_sort(findings.begin(), findings.end(), [](const WhatIfFinding& a,
                                                        const WhatIfFinding& b) {
    if (a.p95_jct_saving != b.p95_jct_saving) return a.p95_jct_saving > b.p95_jct_saving;
    if (a.makespan_saving != b.makespan_saving) return a.makespan_saving > b.makespan_saving;
    return a.branch.label < b.branch.label;
  });
  report.findings = std::move(findings);
  return report;
}

void write_whatif_json(const WhatIfReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("base");
  w.raw(outcome_to_json(report.base).substr(0, outcome_to_json(report.base).size() - 1));
  w.key("candidates").begin_array();
  for (const WhatIfFinding& f : report.findings) {
    w.begin_object();
    w.key("branch").value(f.branch.label);
    w.key("motivation").value(f.motivation);
    w.key("p95_jct_saving_s").raw(json_number(f.p95_jct_saving, 12));
    w.key("makespan_saving_s").raw(json_number(f.makespan_saving, 12));
    w.key("outcome");
    std::string rendered = outcome_to_json(f.outcome);
    while (!rendered.empty() && rendered.back() == '\n') rendered.pop_back();
    w.raw(rendered);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace rupam
