// FaultInjector: replays a FaultPlan against a live simulation.
//
// Each event is scheduled on the simulator at its plan time; applying it
// flips the corresponding lever (Node::set_online + Executor::crash,
// FairShareResource::set_capacity_scale, HeartbeatService::set_dropped)
// and, on a crash, tells the DagScheduler which map outputs died so the
// FetchFailed recovery path resubmits the lost partitions. Recovery events
// for bounded faults (crash downtime, slowdown/hbdrop windows) are
// scheduled automatically.
//
// Spot revocation (kSpotRevoke) is different from a crash: the node is
// drained through the cluster lifecycle immediately (no new launches) and
// permanently decommissioned when the notice window expires — it never
// recovers, and membership listeners (scheduler, heartbeats, sampler) see
// the transition rather than a silent offline flip.
#pragma once

#include <array>

#include "cluster/cluster.hpp"
#include "cluster/heartbeat.hpp"
#include "dag/dag_scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/event_trace.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

/// A node's executor, if it has one, is read from its Node.
struct FaultInjectorEnv {
  Simulator* sim = nullptr;
  Cluster* cluster = nullptr;
  /// Optional: needed for kHeartbeatDrop events.
  HeartbeatService* heartbeats = nullptr;
  /// Optional: crash events invalidate map outputs through it.
  DagScheduler* dag = nullptr;
  /// Optional structured trace (kFaultInjected per applied event).
  EventTrace* trace = nullptr;
};

class FaultInjector {
 public:
  /// Validates the plan against the cluster size; throws on a bad plan.
  FaultInjector(FaultInjectorEnv env, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every plan event on the simulator. Call once, before run().
  void arm();

  const FaultPlan& plan() const { return plan_; }
  std::size_t injected() const { return injected_; }
  /// Plan events of `kind` applied so far (implicit recoveries excluded).
  std::size_t injected(FaultKind kind) const {
    return injected_by_kind_[static_cast<std::size_t>(kind)];
  }
  std::size_t crashes() const { return crashes_; }
  std::size_t recoveries() const { return recoveries_; }
  /// Spot reclaims that completed (node permanently decommissioned).
  std::size_t spot_revocations() const { return spot_revocations_; }
  /// Partitions the DAG resubmitted because a crash ate their map output.
  std::size_t partitions_resubmitted() const { return partitions_resubmitted_; }

 private:
  void apply(const FaultEvent& e);
  void crash_node(NodeId node);
  void recover_node(NodeId node);
  void revoke_node(NodeId node);
  void scale_resource(NodeId node, ResourceKind resource, double factor);
  void trace_event(const FaultEvent& e, const std::string& detail);

  FaultInjectorEnv env_;
  FaultPlan plan_;
  bool armed_ = false;
  std::size_t injected_ = 0;
  std::array<std::size_t, kNumFaultKinds> injected_by_kind_{};
  std::size_t crashes_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t spot_revocations_ = 0;
  std::size_t partitions_resubmitted_ = 0;
};

}  // namespace rupam
