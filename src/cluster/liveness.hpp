// Missed-heartbeat liveness tracking (Spark's HeartbeatReceiver timeout).
//
// A node is marked dead once it has gone `missed_heartbeats_dead` whole
// heartbeat periods without reporting; the first heartbeat after that
// revives it. Pure bookkeeping — callers decide when to sweep and what a
// dead node means (schedulers stop offering work to it).
#pragma once

#include <map>
#include <vector>

#include "common/types.hpp"

namespace rupam {

struct LivenessConfig {
  SimTime heartbeat_period = 1.0;
  /// Whole periods without a heartbeat before a node is declared dead.
  int missed_heartbeats_dead = 3;
};

class NodeLivenessTracker {
 public:
  explicit NodeLivenessTracker(LivenessConfig config = {});

  void configure(LivenessConfig config);

  /// Record a heartbeat from `node`. Returns true if the node was dead and
  /// this beat revived it.
  bool heartbeat(NodeId node, SimTime now);

  /// Declare dead every tracked node silent past the threshold. Returns
  /// the newly-dead nodes in ascending id order.
  std::vector<NodeId> sweep(SimTime now);

  bool dead(NodeId node) const;
  /// Is `node` silent past the threshold at `now`? The comparison sweep()
  /// makes, without waiting for one: equal to dead(node) right after
  /// sweep(now). False for an untracked node.
  bool overdue(NodeId node, SimTime now) const;
  std::size_t tracked() const { return nodes_.size(); }
  /// Stop tracking a node entirely (decommissioned: it is neither dead nor
  /// alive, it is gone). Future sweeps never report it.
  void forget(NodeId node) { nodes_.erase(node); }

 private:
  struct State {
    SimTime last_heartbeat = 0.0;
    bool dead = false;
  };

  bool silent_past_threshold(const State& s, SimTime now) const;

  LivenessConfig config_;
  std::map<NodeId, State> nodes_;  // ordered: deterministic sweep output
};

}  // namespace rupam
