#include "cluster/cluster.hpp"

#include <algorithm>

namespace rupam {

const char* to_string(NodeLifecycle state) {
  switch (state) {
    case NodeLifecycle::kProvisioning: return "provisioning";
    case NodeLifecycle::kLive: return "live";
    case NodeLifecycle::kDraining: return "draining";
    case NodeLifecycle::kDecommissioned: return "decommissioned";
  }
  return "?";
}

Cluster::Cluster(Simulator& sim, Bytes switch_bandwidth)
    : sim_(sim), switch_bandwidth_(switch_bandwidth) {
  if (switch_bandwidth <= 0.0) throw std::invalid_argument("Cluster: bad switch bandwidth");
}

NodeId Cluster::add_node(NodeSpec spec) {
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(sim_, id, std::move(spec), switch_bandwidth_));
  memberships_.push_back(Membership{NodeLifecycle::kLive, sim_.now(), 0.0});
  ++member_count_;
  min_memory_dirty_ = true;
  return id;
}

NodeId Cluster::provision_node(NodeSpec spec, SimTime boot_delay) {
  if (boot_delay < 0.0) throw std::invalid_argument("Cluster: negative boot delay");
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(sim_, id, std::move(spec), switch_bandwidth_));
  nodes_.back()->set_online(false);
  memberships_.push_back(Membership{NodeLifecycle::kProvisioning, sim_.now(), 0.0});
  ++member_count_;
  min_memory_dirty_ = true;
  notify(id, NodeLifecycle::kProvisioning);
  sim_.schedule_after(boot_delay, [this, id] {
    Membership& m = membership(id);
    // A node drained or revoked mid-boot never comes online.
    if (m.state != NodeLifecycle::kProvisioning) return;
    m.state = NodeLifecycle::kLive;
    node(id).set_online(true);
    notify(id, NodeLifecycle::kLive);
  });
  return id;
}

void Cluster::begin_drain(NodeId id) {
  Membership& m = membership(id);
  if (m.state == NodeLifecycle::kDraining || m.state == NodeLifecycle::kDecommissioned) return;
  m.state = NodeLifecycle::kDraining;
  notify(id, NodeLifecycle::kDraining);
}

void Cluster::decommission(NodeId id) {
  Membership& m = membership(id);
  if (m.state == NodeLifecycle::kDecommissioned) return;
  m.state = NodeLifecycle::kDecommissioned;
  m.left_at = sim_.now();
  --member_count_;
  node(id).set_online(false);
  min_memory_dirty_ = true;
  notify(id, NodeLifecycle::kDecommissioned);
}

NodeLifecycle Cluster::lifecycle(NodeId id) const { return membership(id).state; }

bool Cluster::member(NodeId id) const {
  return membership(id).state != NodeLifecycle::kDecommissioned;
}

bool Cluster::schedulable(NodeId id) const {
  return membership(id).state == NodeLifecycle::kLive;
}

std::size_t Cluster::subscribe_membership(MembershipListener listener) {
  std::size_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Cluster::unsubscribe_membership(std::size_t token) {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [token](const auto& p) { return p.first == token; }),
                   listeners_.end());
}

void Cluster::notify(NodeId id, NodeLifecycle state) {
  // Index-based walk: a listener may subscribe another listener while we
  // iterate (new subscribers do not see the in-flight event).
  std::size_t count = listeners_.size();
  for (std::size_t i = 0; i < count && i < listeners_.size(); ++i) {
    listeners_[i].second(id, state);
  }
}

Cluster::Membership& Cluster::membership(NodeId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= memberships_.size()) {
    throw std::out_of_range("Cluster::membership: bad id");
  }
  return memberships_[static_cast<std::size_t>(id)];
}

const Cluster::Membership& Cluster::membership(NodeId id) const {
  return const_cast<Cluster*>(this)->membership(id);
}

void Cluster::bad_node_id() { throw std::out_of_range("Cluster::node: bad id"); }

std::vector<NodeId> Cluster::node_ids() const {
  std::vector<NodeId> ids(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

std::vector<NodeId> Cluster::nodes_of_class(const std::string& node_class) const {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (memberships_[i].state == NodeLifecycle::kDecommissioned) continue;
    if (nodes_[i]->spec().node_class == node_class) ids.push_back(static_cast<NodeId>(i));
  }
  return ids;
}

Bytes Cluster::min_node_memory() const {
  if (!min_memory_dirty_) return min_memory_cache_;
  Bytes m = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (memberships_[i].state == NodeLifecycle::kDecommissioned) continue;
    if (first || nodes_[i]->spec().memory < m) m = nodes_[i]->spec().memory;
    first = false;
  }
  min_memory_cache_ = m;
  min_memory_dirty_ = false;
  return m;
}

double Cluster::provisioned_cost(SimTime now) const {
  double cost = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    double hourly = nodes_[i]->spec().hourly_cost;
    if (hourly <= 0.0) continue;
    const Membership& m = memberships_[i];
    SimTime until = m.state == NodeLifecycle::kDecommissioned ? m.left_at : now;
    if (until > m.joined_at) cost += hourly * (until - m.joined_at) / 3600.0;
  }
  return cost;
}

}  // namespace rupam
