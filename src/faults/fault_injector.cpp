#include "faults/fault_injector.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "exec/executor.hpp"

namespace rupam {

FaultInjector::FaultInjector(FaultInjectorEnv env, FaultPlan plan)
    : env_(std::move(env)), plan_(std::move(plan)) {
  if (env_.sim == nullptr || env_.cluster == nullptr) {
    throw std::invalid_argument("FaultInjector: null environment");
  }
  plan_.validate(env_.cluster->size());
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: already armed");
  armed_ = true;
  for (const FaultEvent& e : plan_.events) {
    env_.sim->schedule_at(e.time, [this, e] { apply(e); });
  }
}

void FaultInjector::trace_event(const FaultEvent& e, const std::string& detail) {
  if (env_.trace == nullptr) return;
  TraceEvent t;
  t.time = env_.sim->now();
  t.type = TraceEventType::kFaultInjected;
  t.node = e.node;
  t.duration = e.duration;
  t.detail = detail;
  env_.trace->record(std::move(t));
}

void FaultInjector::apply(const FaultEvent& e) {
  ++injected_;
  ++injected_by_kind_[static_cast<std::size_t>(e.kind)];
  trace_event(e, e.describe());
  RUPAM_WARN(env_.sim->now(), "fault: ", e.describe());
  switch (e.kind) {
    case FaultKind::kCrash:
      crash_node(e.node);
      if (e.duration > 0.0) {
        env_.sim->schedule_after(e.duration, [this, node = e.node] { recover_node(node); });
      }
      break;
    case FaultKind::kRecover:
      recover_node(e.node);
      break;
    case FaultKind::kSlowdown:
      scale_resource(e.node, e.resource, e.factor);
      if (e.duration > 0.0) {
        env_.sim->schedule_after(e.duration, [this, node = e.node, res = e.resource] {
          scale_resource(node, res, 1.0);
        });
      }
      break;
    case FaultKind::kHeartbeatDrop:
      if (env_.heartbeats == nullptr) {
        throw std::logic_error("FaultInjector: hbdrop event but no heartbeat service");
      }
      env_.heartbeats->set_dropped(e.node, true);
      if (e.duration > 0.0) {
        env_.sim->schedule_after(e.duration, [this, node = e.node] {
          env_.heartbeats->set_dropped(node, false);
        });
      }
      break;
    case FaultKind::kDiskDegrade:
      scale_resource(e.node, ResourceKind::kDisk, e.factor);
      break;
    case FaultKind::kSpotRevoke:
      // Drain immediately (no new launches; running tasks may still
      // finish inside the notice window), then reclaim for good.
      env_.cluster->begin_drain(e.node);
      env_.sim->schedule_after(e.duration, [this, node = e.node] { revoke_node(node); });
      break;
  }
}

void FaultInjector::crash_node(NodeId node) {
  if (!env_.cluster->member(node)) return;  // decommissioned nodes can't crash
  Node& n = env_.cluster->node(node);
  if (!n.online()) return;  // double-crash is a no-op
  ++crashes_;
  n.set_online(false);
  if (Executor* e = n.executor()) e->crash();
  // Map outputs on the node are gone; the DAG decides what to recompute.
  if (env_.dag != nullptr) {
    partitions_resubmitted_ += env_.dag->on_node_lost(node);
  }
}

void FaultInjector::recover_node(NodeId node) {
  // Decommissioned nodes are gone for good: a stale recovery (e.g. the
  // auto-recover scheduled by a crash that raced a spot reclaim) must not
  // resurrect them.
  if (!env_.cluster->member(node)) return;
  Node& n = env_.cluster->node(node);
  if (n.online()) return;
  ++recoveries_;
  n.set_online(true);
  if (Executor* e = n.executor()) e->force_restart();
  RUPAM_INFO(env_.sim->now(), "fault: node ", node, " back online");
}

void FaultInjector::revoke_node(NodeId node) {
  if (!env_.cluster->member(node)) return;  // already reclaimed
  ++spot_revocations_;
  // Membership listeners run first (scheduler purges its per-node indexes,
  // the app layer kills the executor and retires heartbeat/sampler rows);
  // the direct executor/DAG pokes below make standalone use — injector
  // without the app-layer listener — behave identically. Both are
  // idempotent.
  env_.cluster->decommission(node);
  if (Executor* e = env_.cluster->node(node).executor()) e->crash();
  if (env_.dag != nullptr) {
    partitions_resubmitted_ += env_.dag->on_node_lost(node);
  }
  RUPAM_INFO(env_.sim->now(), "fault: node ", node, " spot-reclaimed");
}

void FaultInjector::scale_resource(NodeId node, ResourceKind resource, double factor) {
  Node& n = env_.cluster->node(node);
  switch (resource) {
    case ResourceKind::kCpu:
      n.cpu().set_capacity_scale(factor);
      break;
    case ResourceKind::kNetwork:
      n.net().set_capacity_scale(factor);
      break;
    case ResourceKind::kDisk:
      n.disk_read().set_capacity_scale(factor);
      n.disk_write().set_capacity_scale(factor);
      break;
    default:
      throw std::logic_error("FaultInjector: unthrottlable resource");
  }
}

}  // namespace rupam
