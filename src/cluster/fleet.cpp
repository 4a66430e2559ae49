#include "cluster/fleet.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

#include "cluster/presets.hpp"
#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"

namespace rupam {

namespace {

constexpr JsonFieldReader kFleetSpec("fleet spec: ");

void check_jitter(const std::string& cls, const char* field, double j) {
  if (j < 0.0 || j >= 1.0) {
    kFleetSpec.fail("class '" + cls + "': " + field + " must be in [0, 1), got " +
                    std::to_string(j));
  }
}

}  // namespace

int FleetSpec::total_nodes() const {
  int total = 0;
  for (const NodeClassMix& mix : classes) total += mix.count;
  return total;
}

void FleetSpec::validate() const {
  if (name.empty()) kFleetSpec.fail("name must be non-empty");
  if (classes.empty()) kFleetSpec.fail("at least one node class is required");
  std::set<std::string> seen;
  for (const NodeClassMix& mix : classes) {
    if (mix.name.empty()) kFleetSpec.fail("every class needs a name");
    if (!seen.insert(mix.name).second) {
      kFleetSpec.fail("duplicate class name '" + mix.name + "'");
    }
    if (mix.count <= 0) {
      kFleetSpec.fail("class '" + mix.name + "': count must be positive");
    }
    if (mix.base.cores < 1) {
      kFleetSpec.fail("class '" + mix.name + "': cores must be >= 1");
    }
    if (mix.base.cpu_ghz <= 0.0 || mix.base.cpu_perf <= 0.0) {
      kFleetSpec.fail("class '" + mix.name + "': cpu_ghz and cpu_perf must be positive");
    }
    if (mix.base.memory <= 0.0) {
      kFleetSpec.fail("class '" + mix.name + "': memory must be positive");
    }
    if (mix.base.net_bandwidth <= 0.0) {
      kFleetSpec.fail("class '" + mix.name + "': net bandwidth must be positive");
    }
    if (mix.base.disk_read_bw <= 0.0 || mix.base.disk_write_bw <= 0.0) {
      kFleetSpec.fail("class '" + mix.name + "': disk bandwidth must be positive");
    }
    if (mix.base.gpus < 0) {
      kFleetSpec.fail("class '" + mix.name + "': gpus must be >= 0");
    }
    if (mix.base.hourly_cost < 0.0) {
      kFleetSpec.fail("class '" + mix.name + "': hourly_cost must be >= 0");
    }
    check_jitter(mix.name, "cpu_jitter", mix.cpu_jitter);
    check_jitter(mix.name, "mem_jitter", mix.mem_jitter);
    check_jitter(mix.name, "net_jitter", mix.net_jitter);
    check_jitter(mix.name, "disk_jitter", mix.disk_jitter);
    if (mix.gpu_fraction > 1.0) {
      kFleetSpec.fail("class '" + mix.name + "': gpu_fraction must be <= 1");
    }
  }
}

NodeSpec generate_node(const NodeClassMix& mix, Rng& rng, int index) {
  NodeSpec s = mix.base;
  s.node_class = mix.name;
  s.name = mix.name + std::to_string(index + 1);
  // Draws happen unconditionally, in a fixed order, so switching one
  // jitter knob on or off never perturbs the other fields.
  double cpu = rng.uniform(1.0 - mix.cpu_jitter, 1.0 + mix.cpu_jitter);
  double mem = rng.uniform(1.0 - mix.mem_jitter, 1.0 + mix.mem_jitter);
  double net = rng.uniform(1.0 - mix.net_jitter, 1.0 + mix.net_jitter);
  double dsk = rng.uniform(1.0 - mix.disk_jitter, 1.0 + mix.disk_jitter);
  double gpu_draw = rng.uniform();
  s.cpu_ghz *= cpu;
  s.cpu_perf *= cpu;
  s.memory *= mem;
  s.net_bandwidth *= net;
  s.disk_read_bw *= dsk;
  s.disk_write_bw *= dsk;
  if (mix.gpu_fraction >= 0.0 && gpu_draw >= mix.gpu_fraction) s.gpus = 0;
  return s;
}

std::vector<NodeSpec> generate_fleet(const FleetSpec& spec) {
  spec.validate();
  std::vector<NodeSpec> out;
  out.reserve(static_cast<std::size_t>(spec.total_nodes()));
  Rng root(spec.seed, /*stream=*/0x666c6565745f7631ULL);  // "fleet_v1"
  for (const NodeClassMix& mix : spec.classes) {
    // One child stream per class so adding a class never reshuffles the
    // nodes generated for the classes before it.
    Rng rng = root.split();
    for (int i = 0; i < mix.count; ++i) {
      out.push_back(generate_node(mix, rng, i));
    }
  }
  return out;
}

std::vector<NodeId> build_fleet(Cluster& cluster, const FleetSpec& spec) {
  std::vector<NodeId> ids;
  for (NodeSpec& s : generate_fleet(spec)) {
    ids.push_back(cluster.add_node(std::move(s)));
  }
  return ids;
}

FleetSpec hydra_fleet_spec() {
  FleetSpec spec;
  spec.name = "hydra";
  spec.seed = 1;
  spec.switch_bandwidth = gbit_per_s(1.0);
  NodeClassMix thor;
  thor.name = "thor";
  thor.count = 6;
  thor.base = thor_spec();
  NodeClassMix hulk;
  hulk.name = "hulk";
  hulk.count = 4;
  hulk.base = hulk_spec();
  NodeClassMix stack;
  stack.name = "stack";
  stack.count = 2;
  stack.base = stack_spec();
  spec.classes = {thor, hulk, stack};
  return spec;
}

FleetSpec scaled_hydra_fleet(int nodes, std::uint64_t seed) {
  if (nodes < 3) throw std::runtime_error("scaled_hydra_fleet: need >= 3 nodes");
  FleetSpec spec = hydra_fleet_spec();
  spec.name = "hydra-x" + std::to_string(nodes);
  spec.seed = seed;
  // Preserve Hydra's 6:4:2 mix; stack absorbs the rounding remainder so
  // every fleet still has at least one GPU-bearing node.
  int thor = nodes / 2;
  int hulk = nodes / 3;
  int stack = nodes - thor - hulk;
  spec.classes[0].count = thor;
  spec.classes[1].count = hulk;
  spec.classes[2].count = stack;
  // Mild intra-class spread: real fleets of "identical" machines differ a
  // few percent in clock and disk throughput.
  for (NodeClassMix& mix : spec.classes) {
    mix.cpu_jitter = 0.05;
    mix.disk_jitter = 0.05;
  }
  return spec;
}

namespace {

NodeSpec base_template(const std::string& name) {
  if (name == "thor") return thor_spec();
  if (name == "hulk") return hulk_spec();
  if (name == "stack") return stack_spec();
  kFleetSpec.fail("unknown base template '" + name + "' (expected thor|hulk|stack)");
}

NodeClassMix parse_class(const JsonValue& v) {
  NodeClassMix mix;
  // Object keys iterate in sorted order, so "base" is always applied
  // before any per-field override regardless of file order.
  for (const auto& [key, val] : kFleetSpec.object(v, "each entry in \"classes\"")) {
    if (key == "name") {
      mix.name = kFleetSpec.string(val, "class name");
    } else if (key == "base") {
      mix.base = base_template(kFleetSpec.string(val, "class base"));
    } else if (key == "count") {
      mix.count = kFleetSpec.integer<int>(val, "count");
    } else if (key == "cores") {
      mix.base.cores = kFleetSpec.integer<int>(val, "cores");
    } else if (key == "cpu_ghz") {
      mix.base.cpu_ghz = kFleetSpec.number(val, "cpu_ghz");
    } else if (key == "cpu_perf") {
      mix.base.cpu_perf = kFleetSpec.number(val, "cpu_perf");
    } else if (key == "memory_gb") {
      mix.base.memory = kFleetSpec.number(val, "memory_gb") * kGiB;
    } else if (key == "net_gbps") {
      mix.base.net_bandwidth = gbit_per_s(kFleetSpec.number(val, "net_gbps"));
    } else if (key == "ssd") {
      mix.base.has_ssd = kFleetSpec.boolean(val, "ssd");
    } else if (key == "disk_read_mbps") {
      mix.base.disk_read_bw = mib_per_s(kFleetSpec.number(val, "disk_read_mbps"));
    } else if (key == "disk_write_mbps") {
      mix.base.disk_write_bw = mib_per_s(kFleetSpec.number(val, "disk_write_mbps"));
    } else if (key == "disk_capacity_gb") {
      mix.base.disk_capacity = kFleetSpec.number(val, "disk_capacity_gb") * kGiB;
    } else if (key == "gpus") {
      mix.base.gpus = kFleetSpec.integer<int>(val, "gpus");
    } else if (key == "gpu_speedup") {
      mix.base.gpu_speedup = kFleetSpec.number(val, "gpu_speedup");
    } else if (key == "hourly_cost") {
      mix.base.hourly_cost = kFleetSpec.number(val, "hourly_cost");
    } else if (key == "cpu_jitter") {
      mix.cpu_jitter = kFleetSpec.number(val, "cpu_jitter");
    } else if (key == "mem_jitter") {
      mix.mem_jitter = kFleetSpec.number(val, "mem_jitter");
    } else if (key == "net_jitter") {
      mix.net_jitter = kFleetSpec.number(val, "net_jitter");
    } else if (key == "disk_jitter") {
      mix.disk_jitter = kFleetSpec.number(val, "disk_jitter");
    } else if (key == "gpu_fraction") {
      mix.gpu_fraction = kFleetSpec.number(val, "gpu_fraction");
    } else {
      kFleetSpec.fail("unknown class key '" + key + "'");
    }
  }
  if (mix.name.empty()) kFleetSpec.fail("every class needs a \"name\"");
  // node_class follows the mix name, even for preset-derived classes.
  mix.base.node_class = mix.name;
  return mix;
}

}  // namespace

FleetSpec parse_fleet_json(const std::string& text) {
  return parse_fleet_value(kFleetSpec.parse(text));
}

FleetSpec parse_fleet_value(const JsonValue& doc) {
  FleetSpec spec;
  bool have_classes = false;
  for (const auto& [key, val] : kFleetSpec.object(doc, "top level")) {
    if (key == "name") {
      spec.name = kFleetSpec.string(val, "name");
    } else if (key == "seed") {
      spec.seed = kFleetSpec.seed(val, "seed");
    } else if (key == "switch_gbps") {
      spec.switch_bandwidth = gbit_per_s(kFleetSpec.number(val, "switch_gbps"));
    } else if (key == "classes") {
      for (const JsonValue& c : kFleetSpec.array(val, "classes")) {
        spec.classes.push_back(parse_class(c));
      }
      have_classes = true;
    } else {
      kFleetSpec.fail("unknown top-level key '" + key + "'");
    }
  }
  if (!have_classes) kFleetSpec.fail("missing \"classes\" array");
  spec.validate();
  return spec;
}

FleetSpec load_fleet_file(const std::string& path) {
  std::optional<std::string> text = read_text_file(path);
  if (!text) kFleetSpec.fail("cannot open '" + path + "'");
  try {
    return parse_fleet_json(*text);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " (in '" + path + "')");
  }
}

std::string fleet_to_json(const FleetSpec& spec) {
  std::ostringstream os;
  JsonWriter w(os);
  write_fleet_json(spec, w);
  os << "\n";
  return os.str();
}

void write_fleet_json(const FleetSpec& spec, JsonWriter& w) {
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("seed").value(static_cast<unsigned long long>(spec.seed));
  if (spec.switch_bandwidth > 0.0) {
    w.key("switch_gbps").raw(json_number(spec.switch_bandwidth * 8.0 / 1e9, 12));
  }
  w.key("classes").begin_array();
  for (const NodeClassMix& mix : spec.classes) {
    w.begin_object();
    w.key("name").value(mix.name);
    w.key("count").value(mix.count);
    w.key("cores").value(mix.base.cores);
    w.key("cpu_ghz").raw(json_number(mix.base.cpu_ghz, 12));
    w.key("cpu_perf").raw(json_number(mix.base.cpu_perf, 12));
    w.key("memory_gb").raw(json_number(to_gib(mix.base.memory), 12));
    w.key("net_gbps").raw(json_number(mix.base.net_bandwidth * 8.0 / 1e9, 12));
    w.key("ssd").value(mix.base.has_ssd);
    w.key("disk_read_mbps").raw(json_number(to_mib(mix.base.disk_read_bw), 12));
    w.key("disk_write_mbps").raw(json_number(to_mib(mix.base.disk_write_bw), 12));
    w.key("disk_capacity_gb").raw(json_number(to_gib(mix.base.disk_capacity), 12));
    w.key("gpus").value(mix.base.gpus);
    w.key("gpu_speedup").raw(json_number(mix.base.gpu_speedup, 12));
    w.key("hourly_cost").raw(json_number(mix.base.hourly_cost, 12));
    w.key("cpu_jitter").raw(json_number(mix.cpu_jitter, 12));
    w.key("mem_jitter").raw(json_number(mix.mem_jitter, 12));
    w.key("net_jitter").raw(json_number(mix.net_jitter, 12));
    w.key("disk_jitter").raw(json_number(mix.disk_jitter, 12));
    w.key("gpu_fraction").raw(json_number(mix.gpu_fraction, 12));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace rupam
