// RUPAM's Resource Monitor (RM, paper §III-B1).
//
// A central Monitor holds one metrics row per member node (the paper's
// executordataMap). RUPAM refreshes every row at the start of each
// dispatch round (RupamScheduler::seed_monitor), so admission checks never
// race a 1-second-stale heartbeat view; the Collectors' heartbeats drive
// the rounds and the base scheduler's liveness tracker. For each kind a
// round walks one priority queue, ordered by capacity/capability
// descending, then utilization ascending — "most powerful first, least
// used first" — rebuilt per round, matching the paper's design of
// emptying the queues between offer rounds. Liveness and admission are
// checked by the scheduler during that walk, not here.
#pragma once

#include <unordered_map>
#include <vector>

#include "cluster/node.hpp"

namespace rupam {

class ResourceMonitor {
 public:
  /// Ingest one metrics snapshot, replacing the node's row.
  void record(const NodeMetrics& metrics);
  /// The node's row, or null if it has none.
  const NodeMetrics* latest(NodeId node) const;
  std::size_t tracked_nodes() const { return latest_.size(); }
  /// Drop one node's row (decommissioned: never ranked again).
  void forget(NodeId node) { latest_.erase(node); }

  /// One ranking key per row, computed once so the sort never re-derives
  /// capability/utilization per comparison.
  struct RankKey {
    double capability = 0.0;
    double utilization = 0.0;
    NodeId node = kInvalidNode;
  };
  /// Every row in priority order for `kind`, into caller-owned scratch.
  /// The order is total (ties break on the node id), so a dispatch round
  /// sorts once per kind and checks liveness and admission as it walks.
  void order_into(ResourceKind kind, std::vector<RankKey>& keys,
                  std::vector<NodeId>& out) const;

 private:
  std::unordered_map<NodeId, NodeMetrics> latest_;
};

}  // namespace rupam
