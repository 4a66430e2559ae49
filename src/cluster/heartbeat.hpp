// Worker → master heartbeats as a computed grid (DESIGN.md §10). A beat
// carries only the node id: listeners read a node's metrics (RUPAM's
// "extended heartbeat", paper §III-B1) from the live node at the beat.
// Node i's instants are t0 + i/n of the period at start() (a joiner: its
// join time plus a golden-ratio phase), then repeated += period. They are
// folded by arithmetic, not fired: an instant is a kernel event only while
// the node is watched, or as the first audible instant after a silence.
// Each beat keeps the place among same-time events of a timer re-armed at
// the node's previous instant, after everything scheduled then (the first:
// re-armed at entry); a query at exactly an instant counts its beat as
// past iff the running event sits later.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

/// Worker → master heartbeat period. The one value both the grid and the
/// scheduler's liveness deadline are built from.
inline constexpr SimTime kHeartbeatPeriod = 1.0;

class HeartbeatService {
 public:
  using Listener = std::function<void(NodeId)>;

  HeartbeatService(Cluster& cluster, SimTime period = kHeartbeatPeriod);
  ~HeartbeatService();
  HeartbeatService(const HeartbeatService&) = delete;
  HeartbeatService& operator=(const HeartbeatService&) = delete;

  /// Listeners get every delivered beat.
  void subscribe(Listener listener);

  /// start() puts the cluster members on the grid; stop() takes all off.
  void start();
  void stop();

  /// Put a node that went live on the grid (no-op before start() or if it
  /// is on it); take a decommissioned one off for good.
  void node_joined(NodeId node);
  void node_left(NodeId node);
  /// True while the node is on the grid.
  bool beating(NodeId node) const;

  /// Fault-injection lever: while dropped, a node's beats are swallowed
  /// (the node keeps running — this models a flaky master link, not a
  /// crash). Offline nodes (Node::online() == false) are silent too.
  void set_dropped(NodeId node, bool dropped);

  /// Deliver every beat of `node` while watched (watches nest).
  void watch(NodeId node);
  void unwatch(NodeId node);
  /// Deliver every beat of every node on the grid, joiners included.
  void watch_all(bool on);

  /// The latest instant so far at which the node was on the grid, online
  /// and not dropped; nullopt if none or the node left the cluster.
  std::optional<SimTime> last_beat(NodeId node);

  /// Kernel events the grid occupies: one per pending delivered beat.
  std::size_t queue_entries() const;

 private:
  struct Beat {
    bool on = false;       // on the grid
    bool audible = false;  // online and not dropped, as of the last flip
    bool dropped = false;
    bool resume = false;  // a silence swallowed an instant
    bool delivering = false;
    int watchers = 0;
    Simulator::Stamp prev;  // place of the beat at `next` (see above)
    SimTime next = 0.0;     // the first instant not yet past
    std::optional<SimTime> heard;
    EventHandle event;  // the delivery pending at `next`
  };

  Simulator& sim() { return cluster_.sim(); }
  Beat& beat(NodeId node);
  void enter(NodeId node, SimTime phase);
  void leave(std::size_t idx);
  /// Pass every instant of `b` that is behind the running event.
  void fold(Beat& b);
  void pass(Beat& b, bool audible);
  bool wanted(const Beat& b) const {
    return b.watchers > 0 || watch_all_ || (b.resume && b.audible);
  }
  void arm(NodeId node);
  void deliver(NodeId node);
  /// Re-read online/dropped after a flip of either.
  void refresh_audible(NodeId node);

  Cluster& cluster_;
  SimTime period_;
  bool running_ = false;
  bool watch_all_ = false;
  std::vector<Listener> listeners_;
  std::vector<Beat> beats_;  // by NodeId, grown on demand
};

}  // namespace rupam
