#include "app/run_spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "app/simulation.hpp"
#include "faults/fault_plan.hpp"
#include "sweep/sweep_spec.hpp"
#include "workloads/presets.hpp"

namespace rupam {

namespace {

[[noreturn]] void spec_error(const std::string& message) {
  throw std::runtime_error("run spec: " + message);
}

double require_number(const JsonValue& v, const std::string& what) {
  if (!v.is_number()) spec_error(what + " must be a number");
  return v.as_number();
}

std::uint64_t require_seed(const JsonValue& v, const std::string& what) {
  std::optional<std::uint64_t> seed = json_seed(v);
  if (!seed) spec_error(what + " must be an integer in [0, 2^53]");
  return *seed;
}

int require_int(const JsonValue& v, const std::string& what) {
  std::optional<int> i = json_integer<int>(v);
  if (!i) spec_error(what + " must be an integer");
  return *i;
}

const std::string& require_string(const JsonValue& v, const std::string& what) {
  if (!v.is_string()) spec_error(what + " must be a string");
  return v.as_string();
}

bool require_bool(const JsonValue& v, const std::string& what) {
  if (!v.is_bool()) spec_error(what + " must be a bool");
  return v.as_bool();
}

}  // namespace

void RunSpec::validate() const {
  if (!fleet.empty() && fleet_spec.has_value()) {
    spec_error("give \"fleet\" (a path) or \"fleet_spec\" (inline), not both");
  }
  try {
    workload_preset(workload);
  } catch (const std::exception& e) {
    spec_error(e.what());
  }
  if (iterations < 0) spec_error("iterations must be >= 0");
  if (arrivals < 0.0) spec_error("arrivals must be >= 0");
  if (tenants < 1) spec_error("tenants must be >= 1");
  if (duration <= 0.0) spec_error("duration must be > 0");
  if (diurnal < 0.0 || diurnal > 1.0) spec_error("diurnal must be in [0, 1]");
  if (diurnal_period <= 0.0) spec_error("diurnal_period must be > 0");
  if (autoscale < 0) spec_error("autoscale must be >= 0");
  if (fleet_spec.has_value()) {
    try {
      fleet_spec->validate();
    } catch (const std::exception& e) {
      spec_error(std::string("fleet_spec: ") + e.what());
    }
  }
  if (!faults.empty()) {
    try {
      parse_fault_spec(faults);
    } catch (const std::exception& e) {
      spec_error(std::string("faults: ") + e.what());
    }
  }
  if (!spot_plan.empty()) {
    FaultPlan plan;
    try {
      plan = parse_fault_spec(spot_plan);
    } catch (const std::exception& e) {
      spec_error(std::string("spot_plan: ") + e.what());
    }
    for (const FaultEvent& e : plan.events) {
      if (e.kind != FaultKind::kSpotRevoke) {
        spec_error("spot_plan only takes spot events (got '" +
                   std::string(to_string(e.kind)) + "')");
      }
    }
  }
}

RunSpec parse_run_spec_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const JsonParseError& e) {
    spec_error(e.what());
  }
  return parse_run_spec_value(doc);
}

RunSpec parse_run_spec_value(const JsonValue& doc) {
  if (!doc.is_object()) spec_error("top level must be an object");
  RunSpec spec;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "workload") {
      spec.workload = require_string(value, "workload");
      spec.workload_explicit = true;
    } else if (key == "scheduler") {
      const std::string& name = require_string(value, "scheduler");
      auto kind = scheduler_kind_from_name(name);
      if (!kind) spec_error("unknown scheduler '" + name + "'");
      spec.scheduler = *kind;
    } else if (key == "fleet") {
      spec.fleet = require_string(value, "fleet");
    } else if (key == "fleet_spec") {
      try {
        spec.fleet_spec = parse_fleet_value(value);
      } catch (const std::exception& e) {
        spec_error(std::string("fleet_spec: ") + e.what());
      }
    } else if (key == "iterations") {
      spec.iterations = require_int(value, "iterations");
    } else if (key == "seed") {
      spec.seed = require_seed(value, "seed");
    } else if (key == "sample_utilization") {
      spec.sample_utilization = require_bool(value, "sample_utilization");
    } else if (key == "faults") {
      spec.faults = require_string(value, "faults");
    } else if (key == "chaos_seed") {
      spec.chaos_seed = require_seed(value, "chaos_seed");
    } else if (key == "arrivals") {
      spec.arrivals = require_number(value, "arrivals");
    } else if (key == "tenants") {
      spec.tenants = require_int(value, "tenants");
    } else if (key == "pool_policy") {
      const std::string& name = require_string(value, "pool_policy");
      if (name == "fifo") {
        spec.pool_policy = PoolPolicy::kFifo;
      } else if (name == "fair") {
        spec.pool_policy = PoolPolicy::kFair;
      } else {
        spec_error("unknown pool_policy '" + name + "'");
      }
    } else if (key == "duration") {
      spec.duration = require_number(value, "duration");
    } else if (key == "diurnal") {
      spec.diurnal = require_number(value, "diurnal");
    } else if (key == "diurnal_period") {
      spec.diurnal_period = require_number(value, "diurnal_period");
    } else if (key == "autoscale") {
      spec.autoscale = require_int(value, "autoscale");
    } else if (key == "spot_plan") {
      spec.spot_plan = require_string(value, "spot_plan");
    } else if (key == "preempt") {
      spec.preempt = require_bool(value, "preempt");
    } else {
      spec_error("unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

RunSpec load_run_spec_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read run spec '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  try {
    return parse_run_spec_json(buf.str());
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
  w.key("pool_policy").value(spec.pool_policy == PoolPolicy::kFair ? "fair" : "fifo");
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
