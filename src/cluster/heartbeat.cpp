#include "cluster/heartbeat.hpp"

#include <cmath>
#include <stdexcept>

namespace rupam {

HeartbeatService::HeartbeatService(Cluster& cluster, SimTime period)
    : cluster_(cluster), period_(period) {
  if (period <= 0.0) throw std::invalid_argument("HeartbeatService: period must be > 0");
}

void HeartbeatService::subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

void HeartbeatService::start() {
  if (running_) return;
  running_ = true;
  timers_ = std::make_unique<PeriodicTaskSet>(cluster_.sim(), period_);
  slots_.assign(cluster_.size(), kNoSlot);
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (!cluster_.member(id)) continue;
    // Deterministic stagger: node i beats at phase i/n of the period.
    SimTime phase = period_ * static_cast<double>(i) / static_cast<double>(cluster_.size());
    slots_[i] = timers_->add(phase, [this, id] { beat(id); });
  }
  timers_->start();
}

void HeartbeatService::stop() {
  running_ = false;
  if (timers_) timers_->stop();
  timers_.reset();
  slots_.clear();
}

SimTime HeartbeatService::joiner_phase(NodeId id) const {
  // Golden-ratio stagger: low-discrepancy over [0, period) as ids grow, and
  // a pure function of the id, so the phase never depends on join order or
  // on how many nodes currently beat.
  double frac = static_cast<double>(id) * 0.61803398874989485;
  frac -= std::floor(frac);
  SimTime phase = period_ * frac;
  return phase < period_ ? phase : 0.0;
}

void HeartbeatService::node_joined(NodeId node) {
  if (!running_ || !timers_) return;
  auto idx = static_cast<std::size_t>(node);
  if (idx >= cluster_.size()) throw std::out_of_range("HeartbeatService: bad node id");
  if (slots_.size() < cluster_.size()) slots_.resize(cluster_.size(), kNoSlot);
  if (slots_[idx] != kNoSlot) return;  // already beating
  slots_[idx] = timers_->join(joiner_phase(node), [this, node] { beat(node); });
}

void HeartbeatService::node_left(NodeId node) {
  if (!running_ || !timers_) return;
  auto idx = static_cast<std::size_t>(node);
  if (idx >= slots_.size() || slots_[idx] == kNoSlot) return;
  timers_->leave(slots_[idx]);
  slots_[idx] = kNoSlot;
}

bool HeartbeatService::beating(NodeId node) const {
  auto idx = static_cast<std::size_t>(node);
  return running_ && timers_ && idx < slots_.size() && slots_[idx] != kNoSlot &&
         timers_->member_active(slots_[idx]);
}

void HeartbeatService::set_dropped(NodeId node, bool dropped) {
  auto idx = static_cast<std::size_t>(node);
  if (idx >= cluster_.size()) throw std::out_of_range("HeartbeatService: bad node id");
  if (dropped_.size() < cluster_.size()) dropped_.resize(cluster_.size(), false);
  dropped_[idx] = dropped;
}

bool HeartbeatService::dropped(NodeId node) const {
  auto idx = static_cast<std::size_t>(node);
  return idx < dropped_.size() && dropped_[idx];
}

void HeartbeatService::beat(NodeId id) {
  if (!running_) return;
  // A silenced node's slot still cycles in the task set, so reporting
  // resumes the period after the fault clears.
  if (cluster_.node(id).online() && !dropped(id)) {
    for (const auto& listener : listeners_) listener(id);
  }
}

}  // namespace rupam
