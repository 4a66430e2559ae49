#include "cluster/liveness.hpp"

#include <stdexcept>

namespace rupam {

NodeLivenessTracker::NodeLivenessTracker(LivenessConfig config) { configure(config); }

void NodeLivenessTracker::configure(LivenessConfig config) {
  if (config.heartbeat_period <= 0.0) {
    throw std::invalid_argument("NodeLivenessTracker: heartbeat period must be > 0");
  }
  if (config.missed_heartbeats_dead < 1) {
    throw std::invalid_argument("NodeLivenessTracker: missed threshold must be >= 1");
  }
  config_ = config;
}

bool NodeLivenessTracker::heartbeat(NodeId node, SimTime now) {
  State& s = nodes_[node];
  s.last_heartbeat = now;
  bool revived = s.dead;
  s.dead = false;
  return revived;
}

bool NodeLivenessTracker::silent_past_threshold(const State& s, SimTime now) const {
  SimTime timeout =
      config_.heartbeat_period * static_cast<double>(config_.missed_heartbeats_dead);
  return now - s.last_heartbeat > timeout;
}

std::vector<NodeId> NodeLivenessTracker::sweep(SimTime now) {
  std::vector<NodeId> newly_dead;
  for (auto& [id, s] : nodes_) {
    if (!s.dead && silent_past_threshold(s, now)) {
      s.dead = true;
      newly_dead.push_back(id);
    }
  }
  return newly_dead;
}

bool NodeLivenessTracker::dead(NodeId node) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.dead;
}

bool NodeLivenessTracker::overdue(NodeId node, SimTime now) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() && silent_past_threshold(it->second, now);
}

}  // namespace rupam
