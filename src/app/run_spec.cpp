#include "app/run_spec.hpp"

#include <sstream>
#include <stdexcept>

#include "app/arrivals.hpp"
#include "app/simulation.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/presets.hpp"

namespace rupam {

namespace {

constexpr JsonFieldReader kRunSpec("run spec: ");

}  // namespace

void RunSpec::validate() const {
  if (!fleet.empty() && fleet_spec.has_value()) {
    kRunSpec.fail("give \"fleet\" (a path) or \"fleet_spec\" (inline), not both");
  }
  kRunSpec.nested("", [&] { workload_preset(workload); });
  if (iterations < 0) kRunSpec.fail("iterations must be >= 0");
  if (arrivals < 0.0) kRunSpec.fail("arrivals must be >= 0");
  if (tenants < 1) kRunSpec.fail("tenants must be >= 1");
  if (duration <= 0.0) kRunSpec.fail("duration must be > 0");
  if (arrivals * duration > kMaxExpectedArrivals) {
    kRunSpec.fail("arrivals x duration must be <= " +
                  std::to_string(static_cast<int>(kMaxExpectedArrivals)) +
                  " expected applications");
  }
  if (diurnal < 0.0 || diurnal > 1.0) kRunSpec.fail("diurnal must be in [0, 1]");
  if (diurnal_period <= 0.0) kRunSpec.fail("diurnal_period must be > 0");
  if (autoscale < 0) kRunSpec.fail("autoscale must be >= 0");
  if (fleet_spec.has_value()) kRunSpec.nested("fleet_spec: ", [&] { fleet_spec->validate(); });
  if (!faults.empty()) kRunSpec.nested("faults: ", [&] { parse_fault_spec(faults); });
  if (!spot_plan.empty()) {
    FaultPlan plan = kRunSpec.nested("spot_plan: ", [&] { return parse_fault_spec(spot_plan); });
    for (const FaultEvent& e : plan.events) {
      if (e.kind != FaultKind::kSpotRevoke) {
        kRunSpec.fail("spot_plan only takes spot events (got '" +
                      std::string(to_string(e.kind)) + "')");
      }
    }
  }
}

RunSpec parse_run_spec_json(const std::string& text) {
  return parse_run_spec_value(kRunSpec.parse(text));
}

RunSpec parse_run_spec_value(const JsonValue& doc) {
  RunSpec spec;
  for (const auto& [key, value] : kRunSpec.object(doc, "top level")) {
    if (key == "workload") {
      spec.workload = kRunSpec.string(value, "workload");
      spec.workload_explicit = true;
    } else if (key == "scheduler") {
      const std::string& name = kRunSpec.string(value, "scheduler");
      auto kind = scheduler_kind_from_name(name);
      if (!kind) kRunSpec.fail("unknown scheduler '" + name + "'");
      spec.scheduler = *kind;
    } else if (key == "fleet") {
      spec.fleet = kRunSpec.string(value, "fleet");
    } else if (key == "fleet_spec") {
      spec.fleet_spec = kRunSpec.nested("fleet_spec: ", [&] { return parse_fleet_value(value); });
    } else if (key == "iterations") {
      spec.iterations = kRunSpec.integer<int>(value, "iterations");
    } else if (key == "seed") {
      spec.seed = kRunSpec.seed(value, "seed");
    } else if (key == "sample_utilization") {
      spec.sample_utilization = kRunSpec.boolean(value, "sample_utilization");
    } else if (key == "faults") {
      spec.faults = kRunSpec.string(value, "faults");
    } else if (key == "chaos_seed") {
      spec.chaos_seed = kRunSpec.seed(value, "chaos_seed");
    } else if (key == "arrivals") {
      spec.arrivals = kRunSpec.number(value, "arrivals");
    } else if (key == "tenants") {
      spec.tenants = kRunSpec.integer<int>(value, "tenants");
    } else if (key == "pool_policy") {
      const std::string& name = kRunSpec.string(value, "pool_policy");
      auto policy = pool_policy_from_name(name);
      if (!policy) kRunSpec.fail("unknown pool_policy '" + name + "'");
      spec.pool_policy = *policy;
    } else if (key == "duration") {
      spec.duration = kRunSpec.number(value, "duration");
    } else if (key == "diurnal") {
      spec.diurnal = kRunSpec.number(value, "diurnal");
    } else if (key == "diurnal_period") {
      spec.diurnal_period = kRunSpec.number(value, "diurnal_period");
    } else if (key == "autoscale") {
      spec.autoscale = kRunSpec.integer<int>(value, "autoscale");
    } else if (key == "spot_plan") {
      spec.spot_plan = kRunSpec.string(value, "spot_plan");
    } else if (key == "preempt") {
      spec.preempt = kRunSpec.boolean(value, "preempt");
    } else {
      kRunSpec.fail("unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

RunSpec load_run_spec_file(const std::string& path) {
  std::optional<std::string> text = read_text_file(path);
  if (!text) throw std::runtime_error("cannot read run spec '" + path + "'");
  try {
    return parse_run_spec_json(*text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_run_spec_json(const RunSpec& spec, JsonWriter& w) {
  w.begin_object();
  // "workload" doubles as the explicitness marker (parse sets
  // workload_explicit), mirroring the CLI where an unstated --workload
  // leaves multi-tenant runs free to draw from the whole Table III mix.
  if (spec.workload_explicit) w.key("workload").value(spec.workload);
  w.key("scheduler").value(scheduler_cli_name(spec.scheduler));
  if (!spec.fleet.empty()) w.key("fleet").value(spec.fleet);
  if (spec.fleet_spec.has_value()) {
    w.key("fleet_spec");
    write_fleet_json(*spec.fleet_spec, w);
  }
  w.key("iterations").value(spec.iterations);
  w.key("seed").value(static_cast<unsigned long long>(spec.seed));
  w.key("sample_utilization").value(spec.sample_utilization);
  if (!spec.faults.empty()) w.key("faults").value(spec.faults);
  w.key("chaos_seed").value(static_cast<unsigned long long>(spec.chaos_seed));
  w.key("arrivals").raw(json_number(spec.arrivals, 12));
  w.key("tenants").value(spec.tenants);
  w.key("pool_policy").value(pool_policy_name(spec.pool_policy));
  w.key("duration").raw(json_number(spec.duration, 12));
  w.key("diurnal").raw(json_number(spec.diurnal, 12));
  w.key("diurnal_period").raw(json_number(spec.diurnal_period, 12));
  w.key("autoscale").value(spec.autoscale);
  if (!spec.spot_plan.empty()) w.key("spot_plan").value(spec.spot_plan);
  w.key("preempt").value(spec.preempt);
  w.end_object();
}

std::string run_spec_to_json(const RunSpec& spec) {
  std::ostringstream os;
  JsonWriter w(os);
  write_run_spec_json(spec, w);
  os << "\n";
  return os.str();
}

SimulationConfig make_simulation_config(const RunSpec& spec) {
  spec.validate();
  SimulationConfig cfg;
  cfg.scheduler = spec.scheduler;
  cfg.seed = spec.seed;
  cfg.sample_utilization = spec.sample_utilization;
  cfg.pools.policy = spec.pool_policy;
  const FleetSpec* fleet = spec.fleet_spec ? &*spec.fleet_spec : nullptr;
  FleetSpec loaded;
  if (!spec.fleet.empty()) {
    loaded = load_fleet_file(spec.fleet);
    fleet = &loaded;
  }
  if (fleet != nullptr) {
    cfg.nodes = generate_fleet(*fleet);
    if (fleet->switch_bandwidth > 0.0) cfg.switch_bandwidth = fleet->switch_bandwidth;
  }
  if (!spec.faults.empty()) cfg.faults = parse_fault_spec(spec.faults);
  if (!spec.spot_plan.empty()) {
    FaultPlan plan = parse_fault_spec(spec.spot_plan);
    cfg.faults.events.insert(cfg.faults.events.end(), plan.events.begin(), plan.events.end());
    cfg.faults.sort();
  }
  cfg.chaos_seed = spec.chaos_seed;
  if (spec.autoscale > 0) {
    cfg.autoscale.enabled = true;
    cfg.autoscale.max_nodes = spec.autoscale;
  }
  cfg.preemption.enabled = spec.preempt;
  return cfg;
}

Application make_run_application(const RunSpec& spec, Simulation& sim) {
  if (spec.arrivals > 0.0) {
    throw std::runtime_error(
        "run spec: arrivals > 0 describes a submission stream, not a single application");
  }
  const WorkloadPreset& preset = workload_preset(spec.workload);
  return build_workload(preset, sim.cluster().node_ids(), spec.seed, spec.iterations,
                        hdfs_placement_weights(sim.cluster()));
}

}  // namespace rupam
