#include "sweep/sweep_spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/presets.hpp"

namespace rupam {

std::size_t SweepSpec::cell_index(const CellCoord& c) const {
  return (((c.scheduler * fleet_sizes.size() + c.fleet) * arrival_rates.size() + c.rate) *
              fault_plans.size() +
          c.fault) *
             elastic_modes.size() +
         c.elastic;
}

CellCoord SweepSpec::cell_at(std::size_t index) const {
  CellCoord c;
  c.elastic = index % elastic_modes.size();
  index /= elastic_modes.size();
  c.fault = index % fault_plans.size();
  index /= fault_plans.size();
  c.rate = index % arrival_rates.size();
  index /= arrival_rates.size();
  c.fleet = index % fleet_sizes.size();
  c.scheduler = index / fleet_sizes.size();
  return c;
}

namespace {

[[noreturn]] void spec_error(const std::string& message) {
  throw std::runtime_error("sweep spec: " + message);
}

}  // namespace

std::string_view scheduler_cli_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSpark: return "spark";
    case SchedulerKind::kRupam: return "rupam";
    case SchedulerKind::kStageAware: return "stageaware";
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kHeft: return "heft";
  }
  return "?";
}

void SweepSpec::validate() const {
  if (replications < 1) spec_error("replications must be >= 1");
  if (duration <= 0.0) spec_error("duration must be > 0");
  if (tenants < 1) spec_error("tenants must be >= 1");
  if (iterations_override < 0) spec_error("iterations must be >= 0");
  for (int n : fleet_sizes) {
    // 12 is the Hydra preset; anything else goes through scaled_hydra_fleet,
    // which needs one node per class.
    if (n != 12 && n < 3) spec_error("fleet_sizes entries must be 12 or >= 3");
  }
  for (double r : arrival_rates) {
    if (r <= 0.0) spec_error("arrival_rates entries must be > 0");
  }
  for (const std::string& plan : fault_plans) {
    if (plan.empty()) continue;
    try {
      parse_fault_spec(plan);
    } catch (const std::exception& e) {
      spec_error("fault plan '" + plan + "': " + e.what());
    }
  }
  for (const std::string& name : mix) {
    try {
      workload_preset(name);
    } catch (const std::exception& e) {
      spec_error(e.what());
    }
  }
  for (const std::string& mode : elastic_modes) {
    bool autoscale = false, preempt = false;
    if (!parse_elastic_mode(mode, autoscale, preempt)) {
      spec_error("elastic entry '" + mode +
                 "' must be \"\", \"autoscale\", \"preempt\", or \"autoscale+preempt\"");
    }
  }
}

bool parse_elastic_mode(const std::string& mode, bool& autoscale, bool& preempt) {
  autoscale = false;
  preempt = false;
  if (mode.empty()) return true;
  if (mode == "autoscale") {
    autoscale = true;
  } else if (mode == "preempt") {
    preempt = true;
  } else if (mode == "autoscale+preempt") {
    autoscale = true;
    preempt = true;
  } else {
    return false;
  }
  return true;
}

std::uint64_t sweep_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t scheduler_idx,
                              std::size_t fleet_idx, std::size_t rate_idx,
                              std::size_t fault_idx, int replication) {
  // Absorb one coordinate per round so (1, 0) and (0, 1) in adjacent axes
  // cannot collide the way a plain xor of indices would.
  std::uint64_t h = sweep_mix64(base_seed ^ 0x53574545502d3131ULL);  // "SWEEP-11"
  h = sweep_mix64(h ^ static_cast<std::uint64_t>(scheduler_idx));
  h = sweep_mix64(h ^ static_cast<std::uint64_t>(fleet_idx));
  h = sweep_mix64(h ^ static_cast<std::uint64_t>(rate_idx));
  h = sweep_mix64(h ^ static_cast<std::uint64_t>(fault_idx));
  h = sweep_mix64(h ^ static_cast<std::uint64_t>(replication));
  return h != 0 ? h : 1;
}

std::uint64_t derive_run_seed(const SweepSpec& spec, const CellCoord& cell, int replication) {
  std::uint64_t h = derive_run_seed(spec.base_seed, cell.scheduler, cell.fleet, cell.rate,
                                    cell.fault, replication);
  // Elastic index 0 is the static default: no extra fold, so legacy
  // 4-axis sweeps keep their pinned seeds bit for bit.
  if (cell.elastic > 0) {
    h = sweep_mix64(h ^ (0x454c415354494331ULL +  // "ELASTIC1"
                         static_cast<std::uint64_t>(cell.elastic)));
    if (h == 0) h = 1;
  }
  return h;
}

FleetSpec sweep_fleet_spec(int nodes, std::uint64_t base_seed) {
  if (nodes == 12) return hydra_fleet_spec();
  return scaled_hydra_fleet(nodes, sweep_mix64(base_seed ^ static_cast<std::uint64_t>(nodes)));
}

namespace {

double require_number(const JsonValue& v, const std::string& what) {
  if (!v.is_number()) spec_error(what + " must be a number");
  return v.as_number();
}

std::uint64_t require_u64(const JsonValue& v, const std::string& what) {
  std::optional<std::uint64_t> u = json_integer<std::uint64_t>(v);
  if (!u) spec_error(what + " must be an integer >= 0");
  return *u;
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

const JsonValue::Array& require_array(const JsonValue& v, const std::string& what) {
  if (!v.is_array()) spec_error(what + " must be an array");
  return v.as_array();
}

}  // namespace

SweepSpec parse_sweep_json(const std::string& text) {
  JsonValue root = parse_json(text);
  if (!root.is_object()) spec_error("top level must be an object");
  SweepSpec spec;
  for (const auto& [key, value] : root.as_object()) {
    if (key == "name") {
      spec.name = require_string(value, "name");
    } else if (key == "base_seed") {
      std::optional<std::uint64_t> seed = json_seed(value);
      if (!seed) spec_error("base_seed must be an integer in [0, 2^53]");
      spec.base_seed = *seed;
    } else if (key == "replications") {
      spec.replications = require_int(value, "replications");
    } else if (key == "schedulers") {
      spec.schedulers.clear();
      for (const JsonValue& v : require_array(value, "schedulers")) {
        const std::string& name = require_string(v, "schedulers entry");
        auto kind = scheduler_kind_from_name(name);
        if (!kind) spec_error("unknown scheduler '" + name + "'");
        spec.schedulers.push_back(*kind);
      }
    } else if (key == "fleet_sizes") {
      spec.fleet_sizes.clear();
      for (const JsonValue& v : require_array(value, "fleet_sizes")) {
        spec.fleet_sizes.push_back(require_int(v, "fleet_sizes entry"));
      }
    } else if (key == "arrival_rates") {
      spec.arrival_rates.clear();
      for (const JsonValue& v : require_array(value, "arrival_rates")) {
        spec.arrival_rates.push_back(require_number(v, "arrival_rates entry"));
      }
    } else if (key == "fault_plans") {
      spec.fault_plans.clear();
      for (const JsonValue& v : require_array(value, "fault_plans")) {
        spec.fault_plans.push_back(require_string(v, "fault_plans entry"));
      }
    } else if (key == "elastic") {
      spec.elastic_modes.clear();
      for (const JsonValue& v : require_array(value, "elastic")) {
        spec.elastic_modes.push_back(require_string(v, "elastic entry"));
      }
    } else if (key == "duration") {
      spec.duration = require_number(value, "duration");
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
    } else if (key == "mix") {
      spec.mix.clear();
      for (const JsonValue& v : require_array(value, "mix")) {
        spec.mix.push_back(require_string(v, "mix entry"));
      }
    } else if (key == "iterations") {
      spec.iterations_override = require_int(value, "iterations");
    } else if (key == "max_apps") {
      spec.max_apps = static_cast<std::size_t>(require_u64(value, "max_apps"));
    } else if (key == "sample_utilization") {
      if (!value.is_bool()) spec_error("sample_utilization must be a bool");
      spec.sample_utilization = value.as_bool();
    } else if (key == "analyze") {
      if (!value.is_bool()) spec_error("analyze must be a bool");
      spec.analyze = value.as_bool();
    } else {
      spec_error("unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read sweep spec '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  try {
    return parse_sweep_json(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string sweep_to_json(const SweepSpec& spec) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("base_seed").value(static_cast<unsigned long long>(spec.base_seed));
  w.key("replications").value(spec.replications);
  w.key("schedulers").begin_array();
  for (SchedulerKind kind : spec.schedulers) w.value(scheduler_cli_name(kind));
  w.end_array();
  w.key("fleet_sizes").begin_array();
  for (int n : spec.fleet_sizes) w.value(n);
  w.end_array();
  w.key("arrival_rates").begin_array();
  for (double r : spec.arrival_rates) w.value(r);
  w.end_array();
  w.key("fault_plans").begin_array();
  for (const std::string& p : spec.fault_plans) w.value(p);
  w.end_array();
  w.key("elastic").begin_array();
  for (const std::string& m : spec.elastic_modes) w.value(m);
  w.end_array();
  w.key("duration").value(spec.duration);
  w.key("tenants").value(spec.tenants);
  w.key("pool_policy").value(spec.pool_policy == PoolPolicy::kFair ? "fair" : "fifo");
  w.key("mix").begin_array();
  for (const std::string& m : spec.mix) w.value(m);
  w.end_array();
  w.key("iterations").value(spec.iterations_override);
  w.key("max_apps").value(static_cast<unsigned long long>(spec.max_apps));
  w.key("sample_utilization").value(spec.sample_utilization);
  w.key("analyze").value(spec.analyze);
  w.end_object();
  return os.str();
}

}  // namespace rupam
