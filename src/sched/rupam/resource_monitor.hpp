// RUPAM's Resource Monitor (RM, paper §III-B1).
//
// A central Monitor records the per-node metrics that the distributed
// Collectors piggy-back on heartbeats (our HeartbeatService). For each
// scheduling round it materializes one priority queue per resource type,
// ordered by capacity/capability descending, then utilization ascending —
// "most powerful first, least used first". Queues are rebuilt per round,
// matching the paper's design of emptying them between offer rounds.
//
// With liveness configured, the heartbeat-path record() overload also
// stamps last-seen times so the RM can declare silent nodes dead and drop
// them from every queue (RUPAM's own view of node failure, independent of
// the base scheduler's blacklist).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/liveness.hpp"
#include "cluster/node.hpp"

namespace rupam {

class ResourceMonitor {
 public:
  /// Ingest one metrics snapshot (the paper's executordataMap analogue).
  /// Does not touch liveness — used by dispatch-round refreshes.
  void record(const NodeMetrics& metrics);
  /// Heartbeat-path ingest: also stamps the node's last-seen time.
  void record(const NodeMetrics& metrics, SimTime now);

  /// Enable missed-heartbeat detection (disabled until configured).
  void configure_liveness(const LivenessConfig& cfg);
  bool liveness_enabled() const { return liveness_enabled_; }
  /// Declare silent nodes dead; returns the newly-dead ones.
  std::vector<NodeId> sweep_dead(SimTime now);
  bool dead(NodeId node) const { return liveness_enabled_ && liveness_.dead(node); }

  const NodeMetrics* latest(NodeId node) const;
  bool has(NodeId node) const { return latest(node) != nullptr; }
  std::size_t tracked_nodes() const { return latest_.size(); }
  void clear() {
    latest_.clear();
    liveness_.clear();
  }
  /// Drop one node's row entirely (decommissioned: no metrics, no liveness
  /// state, never ranked again).
  void forget(NodeId node) {
    latest_.erase(node);
    liveness_.forget(node);
  }

  /// The per-resource priority queue: live nodes passing `admit`, best
  /// first.
  std::vector<NodeId> ranked(ResourceKind kind,
                             const std::function<bool(const NodeMetrics&)>& admit) const;

  /// One ranking key per row, computed once so the sort never re-derives
  /// capability/utilization per comparison.
  struct RankKey {
    double capability = 0.0;
    double utilization = 0.0;
    NodeId node = kInvalidNode;
  };
  /// Every row — dead ones included — in priority order for `kind`, into
  /// caller-owned scratch. The order is total (ties break on the node id),
  /// so filtering it by liveness and admission yields exactly ranked():
  /// a dispatch round sorts once per kind and checks admission as it walks.
  void order_into(ResourceKind kind, std::vector<RankKey>& keys,
                  std::vector<NodeId>& out) const;

 private:
  std::unordered_map<NodeId, NodeMetrics> latest_;
  NodeLivenessTracker liveness_;
  bool liveness_enabled_ = false;
};

}  // namespace rupam
