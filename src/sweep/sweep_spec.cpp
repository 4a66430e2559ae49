#include "sweep/sweep_spec.hpp"

#include <sstream>
#include <stdexcept>

#include "app/arrivals.hpp"
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

constexpr JsonFieldReader kSweepSpec("sweep spec: ");

}  // namespace

void SweepSpec::validate() const {
  if (replications < 1) kSweepSpec.fail("replications must be >= 1");
  if (duration <= 0.0) kSweepSpec.fail("duration must be > 0");
  if (tenants < 1) kSweepSpec.fail("tenants must be >= 1");
  if (iterations_override < 0) kSweepSpec.fail("iterations must be >= 0");
  for (int n : fleet_sizes) {
    // 12 is the Hydra preset; anything else goes through scaled_hydra_fleet,
    // which needs one node per class.
    if (n != 12 && n < 3) kSweepSpec.fail("fleet_sizes entries must be 12 or >= 3");
  }
  for (double r : arrival_rates) {
    if (r <= 0.0) kSweepSpec.fail("arrival_rates entries must be > 0");
    if (max_apps == 0 && r * duration > kMaxExpectedArrivals) {
      kSweepSpec.fail("arrival_rates x duration must be <= " +
                      std::to_string(static_cast<int>(kMaxExpectedArrivals)) +
                      " expected applications unless max_apps caps them");
    }
  }
  for (const std::string& plan : fault_plans) {
    if (plan.empty()) continue;
    kSweepSpec.nested("fault plan '" + plan + "': ", [&] { parse_fault_spec(plan); });
  }
  for (const std::string& name : mix) kSweepSpec.nested("", [&] { workload_preset(name); });
  for (const std::string& mode : elastic_modes) {
    bool autoscale = false, preempt = false;
    if (!parse_elastic_mode(mode, autoscale, preempt)) {
      kSweepSpec.fail("elastic entry '" + mode +
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

SweepSpec parse_sweep_json(const std::string& text) {
  JsonValue root = parse_json(text);
  SweepSpec spec;
  for (const auto& [key, value] : kSweepSpec.object(root, "top level")) {
    if (key == "name") {
      spec.name = kSweepSpec.string(value, "name");
    } else if (key == "base_seed") {
      spec.base_seed = kSweepSpec.seed(value, "base_seed");
    } else if (key == "replications") {
      spec.replications = kSweepSpec.integer<int>(value, "replications");
    } else if (key == "schedulers") {
      spec.schedulers.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "schedulers")) {
        const std::string& name = kSweepSpec.string(v, "schedulers entry");
        auto kind = scheduler_kind_from_name(name);
        if (!kind) kSweepSpec.fail("unknown scheduler '" + name + "'");
        spec.schedulers.push_back(*kind);
      }
    } else if (key == "fleet_sizes") {
      spec.fleet_sizes.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "fleet_sizes")) {
        spec.fleet_sizes.push_back(kSweepSpec.integer<int>(v, "fleet_sizes entry"));
      }
    } else if (key == "arrival_rates") {
      spec.arrival_rates.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "arrival_rates")) {
        spec.arrival_rates.push_back(kSweepSpec.number(v, "arrival_rates entry"));
      }
    } else if (key == "fault_plans") {
      spec.fault_plans.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "fault_plans")) {
        spec.fault_plans.push_back(kSweepSpec.string(v, "fault_plans entry"));
      }
    } else if (key == "elastic") {
      spec.elastic_modes.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "elastic")) {
        spec.elastic_modes.push_back(kSweepSpec.string(v, "elastic entry"));
      }
    } else if (key == "duration") {
      spec.duration = kSweepSpec.number(value, "duration");
    } else if (key == "tenants") {
      spec.tenants = kSweepSpec.integer<int>(value, "tenants");
    } else if (key == "pool_policy") {
      const std::string& name = kSweepSpec.string(value, "pool_policy");
      auto policy = pool_policy_from_name(name);
      if (!policy) kSweepSpec.fail("unknown pool_policy '" + name + "'");
      spec.pool_policy = *policy;
    } else if (key == "mix") {
      spec.mix.clear();
      for (const JsonValue& v : kSweepSpec.array(value, "mix")) {
        spec.mix.push_back(kSweepSpec.string(v, "mix entry"));
      }
    } else if (key == "iterations") {
      spec.iterations_override = kSweepSpec.integer<int>(value, "iterations");
    } else if (key == "max_apps") {
      spec.max_apps = kSweepSpec.integer<std::uint64_t>(value, "max_apps");
    } else if (key == "sample_utilization") {
      spec.sample_utilization = kSweepSpec.boolean(value, "sample_utilization");
    } else if (key == "analyze") {
      spec.analyze = kSweepSpec.boolean(value, "analyze");
    } else {
      kSweepSpec.fail("unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  std::optional<std::string> text = read_text_file(path);
  if (!text) throw std::runtime_error("cannot read sweep spec '" + path + "'");
  try {
    return parse_sweep_json(*text);
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
  w.key("pool_policy").value(pool_policy_name(spec.pool_policy));
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
