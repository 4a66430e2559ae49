// Parameterized cluster generation: scale Table II-style heterogeneity
// from the 12-node Hydra testbed to arbitrary fleet sizes.
//
// A FleetSpec is a list of node classes (count + template NodeSpec +
// seeded per-node jitter). The same (spec, seed) pair always generates
// the same NodeSpecs, so fleets are as reproducible as the presets.
// Specs are loadable from small JSON files (see DESIGN.md §9 for the
// schema) and exposed on the CLI via --fleet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/node_spec.hpp"
#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"

namespace rupam {

/// One homogeneous-by-template slice of the fleet. Jitter fields are
/// fractional half-widths: cpu_jitter = 0.05 draws a per-node factor
/// uniform in [0.95, 1.05) applied to cpu_ghz and cpu_perf. Zero means
/// every node is an exact copy of `base`.
struct NodeClassMix {
  std::string name;  // node_class; nodes are named "<name>1", "<name>2", ...
  int count = 0;
  NodeSpec base;

  double cpu_jitter = 0.0;   // cpu_ghz, cpu_perf
  double mem_jitter = 0.0;   // memory
  double net_jitter = 0.0;   // net_bandwidth
  double disk_jitter = 0.0;  // disk_read_bw, disk_write_bw

  /// Fraction of nodes in this class that carry `base.gpus` GPUs (the
  /// rest get none). Negative (the default) means every node gets
  /// `base.gpus` — no sampling.
  double gpu_fraction = -1.0;
};

struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t seed = 1;
  /// Fabric bandwidth for the generated cluster; <= 0 means "use the
  /// caller's default" (the CLI default or --switch-gbps).
  Bytes switch_bandwidth = 0.0;
  std::vector<NodeClassMix> classes;

  int total_nodes() const;
  /// Throws std::runtime_error with a field-specific message when the
  /// spec cannot generate a sane cluster.
  void validate() const;
};

/// Generate the per-node specs. Deterministic: depends only on the spec
/// contents (including seed), never on global state.
std::vector<NodeSpec> generate_fleet(const FleetSpec& spec);

/// Generate one node of `mix` with per-node jitter drawn from `rng` —
/// the exact draw sequence generate_fleet uses, exposed so the
/// autoscaler can mint node `index` of a class mid-run and get the same
/// spec a bigger static fleet would have had. `index` is zero-based;
/// the node is named "<mix.name><index+1>".
NodeSpec generate_node(const NodeClassMix& mix, Rng& rng, int index);

/// Generate and add every node to `cluster`; returns ids in creation
/// order (class order, then index within class — like build_hydra).
std::vector<NodeId> build_fleet(Cluster& cluster, const FleetSpec& spec);

/// The canned 12-node Hydra testbed as a FleetSpec: 6x thor + 4x hulk +
/// 2x stack with zero jitter. generate_fleet(hydra_fleet_spec()) is
/// byte-identical to build_hydra's specs.
FleetSpec hydra_fleet_spec();

/// Hydra's 6:4:2 class ratio scaled to `nodes` total nodes with mild
/// intra-class jitter — the workhorse of bench/perf's fleet section.
FleetSpec scaled_hydra_fleet(int nodes, std::uint64_t seed);

/// Parse a JSON fleet spec (schema in DESIGN.md §9). Unknown keys and
/// type mismatches are errors; throws std::runtime_error.
FleetSpec parse_fleet_json(const std::string& text);

/// Same, from an already-parsed JSON value — lets enclosing documents
/// (RunSpec's "fleet_spec", checkpoints) embed a fleet inline.
FleetSpec parse_fleet_value(const JsonValue& doc);

/// Write the spec as one JSON object into an in-progress writer (the
/// embedding counterpart of parse_fleet_value). fleet_to_json is this
/// plus a trailing newline on a fresh writer.
void write_fleet_json(const FleetSpec& spec, JsonWriter& w);

/// Read and parse a spec file; throws std::runtime_error (with the path)
/// on IO or parse failure.
FleetSpec load_fleet_file(const std::string& path);

/// Serialize a spec to JSON that parse_fleet_json maps back to an
/// equivalent spec (round-trip stable).
std::string fleet_to_json(const FleetSpec& spec);

}  // namespace rupam
