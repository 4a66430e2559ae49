// Declarative fault plans for the chaos harness.
//
// A FaultPlan is a time-ordered list of injectable events — node crashes
// (with optional timed recovery), transient capacity slowdowns, heartbeat
// drop windows, and permanent disk degradation. Plans come from three
// places: hand-written specs (`--faults` on the CLI, or test fixtures),
// the seeded chaos generator (`--chaos SEED`), or direct construction in
// tests. Everything is deterministic: the same spec or seed always yields
// the same plan, and the simulator replays it identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rupam {

enum class FaultKind : std::uint8_t {
  kCrash,          // node goes offline, executor dies, map outputs lost
  kRecover,        // node comes back (also scheduled implicitly by kCrash)
  kSlowdown,       // one resource's capacity scaled by `factor` for `duration`
  kHeartbeatDrop,  // beats swallowed for `duration` (node keeps running)
  kDiskDegrade,    // permanent disk capacity scale (failing spindle)
  kSpotRevoke,     // spot-market reclaim: drain now, decommission after notice
};
inline constexpr std::size_t kNumFaultKinds = static_cast<std::size_t>(FaultKind::kSpotRevoke) + 1;

/// The grammar's name for each kind ("crash", "slow", ...) and its inverse.
std::string_view to_string(FaultKind kind);
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

struct FaultEvent {
  SimTime time = 0.0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node = kInvalidNode;
  /// kCrash: downtime before auto-recovery (0 = stays down until an
  /// explicit kRecover). kSlowdown/kHeartbeatDrop: how long the fault
  /// lasts (0 = permanent). kSpotRevoke: the revocation notice — seconds
  /// between the drain signal and the permanent decommission (0 = the
  /// node vanishes immediately). Ignored by kRecover/kDiskDegrade.
  SimTime duration = 0.0;
  /// Capacity scale in (0, 1] for kSlowdown/kDiskDegrade.
  double factor = 1.0;
  /// Which resource kSlowdown throttles (kCpu, kDisk, or kNetwork).
  ResourceKind resource = ResourceKind::kCpu;

  std::string describe() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Throws std::invalid_argument on out-of-range nodes, non-positive
  /// factors, negative or non-finite times/durations/factors, or a
  /// slowdown of an unthrottlable resource.
  void validate(std::size_t num_nodes) const;
  /// Stable sort by (time, node, kind) so replay order is deterministic
  /// regardless of authoring order.
  void sort();
};

/// Parse the CLI fault spec: semicolon-separated events of the form
///   kind@time[:key=value]...
/// with kinds crash|recover|slow|hbdrop|degrade|spot and keys
///   node=N  down=SECONDS  for=SECONDS  notice=SECONDS  factor=F
///   res=cpu|disk|net
/// e.g. "crash@60:node=3:down=40;spot@90:node=5:notice=30".
/// Throws std::invalid_argument with a message naming the bad token.
FaultPlan parse_fault_spec(const std::string& spec);

/// Seeded random plan for chaos testing: a handful of crashes (on distinct
/// nodes, never more than half the cluster), slowdowns, heartbeat-drop
/// windows and disk degradations, all bounded so any workload that
/// finishes fault-free also finishes under chaos. Same (seed, num_nodes,
/// horizon) → same plan.
FaultPlan make_chaos_plan(std::uint64_t seed, std::size_t num_nodes, SimTime horizon = 240.0);

}  // namespace rupam
