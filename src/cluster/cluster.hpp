// A set of simulated nodes behind a shared switch.
//
// Membership is a runtime lifecycle, not a construction-time constant:
// nodes added with add_node() start live, while provision_node() models a
// cloud instance that boots asynchronously. Every lifecycle transition is
// pushed to membership subscribers so no layer above the cluster holds a
// stale NodeId snapshot. NodeIds are never reused: a decommissioned node
// keeps its id (and its Node object, for post-mortem inspection) but drops
// out of every membership-aware query.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

/// Node lifecycle: provisioning → live → draining → decommissioned.
/// Draining nodes finish their running tasks but accept no new work;
/// decommissioning is permanent (unlike a crash, which can recover).
enum class NodeLifecycle : std::uint8_t {
  kProvisioning,
  kLive,
  kDraining,
  kDecommissioned,
};

const char* to_string(NodeLifecycle state);

class Cluster {
 public:
  /// Called after every lifecycle transition with the node and its NEW
  /// state. The cluster's own bookkeeping (online flag, membership caches)
  /// is updated before listeners run, so they observe the post-transition
  /// world.
  using MembershipListener = std::function<void(NodeId, NodeLifecycle)>;

  /// `switch_bandwidth` caps every NIC's achievable rate (Table IV shows a
  /// 1 GbE fabric leveling nominally-10GbE hulk nodes to ~940 Mbit/s).
  Cluster(Simulator& sim, Bytes switch_bandwidth = gbit_per_s(1.0));

  /// Add a node that is live immediately. No membership notification fires:
  /// static fleets built at t=0 behave exactly as before the lifecycle
  /// existed.
  NodeId add_node(NodeSpec spec);

  /// Add a node in kProvisioning state (offline); after `boot_delay` it
  /// flips to kLive and comes online. Notifies kProvisioning now and kLive
  /// at boot completion. The id is assigned (and the Node constructed)
  /// immediately so callers can wire executors before boot finishes.
  NodeId provision_node(NodeSpec spec, SimTime boot_delay);

  /// Move a live (or still-provisioning) node to kDraining: it accepts no
  /// new tasks but keeps running the ones it has. No-op if already draining
  /// or decommissioned.
  void begin_drain(NodeId id);

  /// Permanently remove a node from membership: offline, never schedulable
  /// again. Idempotent. Subscribers are responsible for the fallout
  /// (killing the executor, resubmitting lost map outputs, retiring the
  /// node off the heartbeat grid).
  void decommission(NodeId id);

  NodeLifecycle lifecycle(NodeId id) const;
  /// Member = not decommissioned (provisioning and draining nodes count).
  bool member(NodeId id) const;
  /// Schedulable = live right now: the only state that may receive new
  /// tasks. (Crashed-but-live nodes are filtered separately by liveness.)
  bool schedulable(NodeId id) const;
  std::size_t member_count() const { return member_count_; }

  /// Subscribe to lifecycle transitions; returns a token for unsubscribe.
  /// Listeners run in subscription order.
  std::size_t subscribe_membership(MembershipListener listener);
  void unsubscribe_membership(std::size_t token);

  /// Inline: the dispatch walk reads every visited node's executor here.
  Node& node(NodeId id) {
    if (static_cast<std::size_t>(id) >= nodes_.size()) bad_node_id();
    return *nodes_[static_cast<std::size_t>(id)];
  }
  const Node& node(NodeId id) const { return const_cast<Cluster*>(this)->node(id); }
  /// Nodes ever created, including decommissioned ones. NodeId is always a
  /// valid index below size().
  std::size_t size() const { return nodes_.size(); }

  /// All ids ever created (dense 0..size()-1). Callers that must skip
  /// departed nodes filter with member()/schedulable().
  std::vector<NodeId> node_ids() const;
  /// Current members of the class (decommissioned nodes excluded).
  std::vector<NodeId> nodes_of_class(const std::string& node_class) const;

  Simulator& sim() { return sim_; }

  /// Smallest node memory among current members — default Spark sizes every
  /// executor to fit the weakest node (paper §IV: 14 GB for 16 GB thor).
  /// Cached; invalidated on every membership change.
  Bytes min_node_memory() const;

  /// Accumulated fleet cost in cost-units: sum over all nodes ever created
  /// of spec().hourly_cost × membership hours (join → decommission, or
  /// join → `now` for nodes still in the fleet).
  double provisioned_cost(SimTime now) const;

 private:
  struct Membership {
    NodeLifecycle state = NodeLifecycle::kLive;
    SimTime joined_at = 0.0;
    SimTime left_at = 0.0;  // meaningful only once decommissioned
  };

  [[noreturn]] static void bad_node_id();
  void notify(NodeId id, NodeLifecycle state);
  Membership& membership(NodeId id);
  const Membership& membership(NodeId id) const;

  Simulator& sim_;
  Bytes switch_bandwidth_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Membership> memberships_;
  std::size_t member_count_ = 0;
  std::vector<std::pair<std::size_t, MembershipListener>> listeners_;
  std::size_t next_listener_token_ = 0;
  mutable Bytes min_memory_cache_ = 0.0;
  mutable bool min_memory_dirty_ = true;
};

}  // namespace rupam
