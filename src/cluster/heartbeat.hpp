// Periodic worker → master heartbeats. A beat carries only the node id:
// listeners that need a node's metrics (RUPAM's "extended heartbeat",
// paper §III-B1) read them from the live node at the beat. Listeners get
// one callback per node per period; beats are staggered deterministically
// so no two nodes report at the exact same instant.
//
// All N per-node timers ride on a single PeriodicTaskSet, so the service
// occupies one kernel event-queue entry regardless of cluster size.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "simcore/periodic.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

/// Worker → master heartbeat period. The one value both the service's
/// wheel and the scheduler's liveness deadline are built from.
inline constexpr SimTime kHeartbeatPeriod = 1.0;

class HeartbeatService {
 public:
  using Listener = std::function<void(NodeId)>;

  HeartbeatService(Cluster& cluster, SimTime period = kHeartbeatPeriod);

  void subscribe(Listener listener);

  /// Begin emitting heartbeats (first beats land within one period). Only
  /// current cluster members get a wheel entry; nodes that join later are
  /// added with node_joined().
  void start();
  void stop();

  /// Give a newly joined node a wheel entry (no-op before start(), or if
  /// the node already beats). Its phase is a deterministic golden-ratio
  /// stagger of the id, so join order never shifts other nodes' beats.
  void node_joined(NodeId node);
  /// Retire a decommissioned node's wheel entry: it never beats again, not
  /// even as a silent cycle (no ghost beats).
  void node_left(NodeId node);
  /// True while the node owns a live wheel entry.
  bool beating(NodeId node) const;

  /// Fault-injection lever: while dropped, a node's beats are swallowed
  /// (the node keeps running — this models a flaky master link, not a
  /// crash). Offline nodes (Node::online() == false) are silent too.
  void set_dropped(NodeId node, bool dropped);
  bool dropped(NodeId node) const;

  /// Kernel event-queue entries the service occupies (1 while running).
  std::size_t queue_entries() const { return timers_ ? timers_->queue_entries() : 0u; }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void beat(NodeId id);
  SimTime joiner_phase(NodeId id) const;

  Cluster& cluster_;
  SimTime period_;
  bool running_ = false;
  std::vector<Listener> listeners_;
  std::unique_ptr<PeriodicTaskSet> timers_;
  std::vector<bool> dropped_;
  std::vector<std::size_t> slots_;  // NodeId -> wheel member index
};

}  // namespace rupam
