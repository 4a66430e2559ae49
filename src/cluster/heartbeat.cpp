#include "cluster/heartbeat.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rupam {

HeartbeatService::HeartbeatService(Cluster& cluster, SimTime period)
    : cluster_(cluster), period_(period) {
  if (period <= 0.0) throw std::invalid_argument("HeartbeatService: period must be > 0");
}

HeartbeatService::~HeartbeatService() { stop(); }

void HeartbeatService::subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

HeartbeatService::Beat& HeartbeatService::beat(NodeId node) {
  auto idx = static_cast<std::size_t>(node);
  if (idx >= cluster_.size()) throw std::out_of_range("HeartbeatService: bad node id");
  if (beats_.size() < cluster_.size()) beats_.resize(cluster_.size());
  return beats_[idx];
}

void HeartbeatService::start() {
  if (running_) return;
  running_ = true;
  std::size_t n = cluster_.size();
  for (NodeId id = 0; static_cast<std::size_t>(id) < n; ++id) {
    if (cluster_.member(id)) enter(id, period_ * static_cast<double>(id) / static_cast<double>(n));
  }
}

void HeartbeatService::stop() {
  running_ = false;
  for (std::size_t i = 0; i < beats_.size(); ++i) leave(i);
}

// Off the grid a flip needs no fold: enter() re-reads the node.
void HeartbeatService::leave(std::size_t idx) {
  beats_[idx].on = false;
  beats_[idx].event.cancel();
  cluster_.node(static_cast<NodeId>(idx)).set_online_listener(nullptr);
}

void HeartbeatService::enter(NodeId node, SimTime phase) {
  Beat& b = beat(node);
  b.on = true;
  b.prev = sim().stamp();
  b.next = sim().now() + phase;
  b.audible = cluster_.node(node).online() && !b.dropped;
  cluster_.node(node).set_online_listener([this, node](bool) { refresh_audible(node); });
  arm(node);
}

void HeartbeatService::node_joined(NodeId node) {
  if (!running_ || beat(node).on) return;
  // Golden-ratio stagger: a pure function of the id, so join order never matters.
  double frac = static_cast<double>(node) * 0.61803398874989485;
  frac -= std::floor(frac);
  SimTime phase = period_ * frac;
  enter(node, phase < period_ ? phase : 0.0);
}

void HeartbeatService::node_left(NodeId node) {
  auto idx = static_cast<std::size_t>(node);
  if (running_ && idx < beats_.size()) leave(idx);
}

bool HeartbeatService::beating(NodeId node) const {
  auto idx = static_cast<std::size_t>(node);
  return running_ && idx < beats_.size() && beats_[idx].on;
}

void HeartbeatService::set_dropped(NodeId node, bool dropped) {
  beat(node).dropped = dropped;
  refresh_audible(node);
}

void HeartbeatService::refresh_audible(NodeId node) {
  Beat& b = beat(node);
  bool audible = cluster_.node(node).online() && !b.dropped;
  if (audible == b.audible) return;
  fold(b);  // the instants so far heard the old state
  b.audible = audible;
  arm(node);  // a silence that swallowed an instant ends at the next one
}

void HeartbeatService::watch(NodeId node) {
  ++beat(node).watchers;
  arm(node);
}

void HeartbeatService::unwatch(NodeId node) {
  Beat& b = beat(node);
  if (b.watchers == 0) throw std::logic_error("HeartbeatService: unwatch without watch");
  if (--b.watchers == 0 && !wanted(b)) b.event.cancel();
}

void HeartbeatService::watch_all(bool on) {
  watch_all_ = on;
  for (std::size_t i = 0; i < beats_.size(); ++i) {
    if (!wanted(beats_[i])) beats_[i].event.cancel();
    arm(static_cast<NodeId>(i));
  }
}

std::optional<SimTime> HeartbeatService::last_beat(NodeId node) {
  if (!cluster_.member(node)) return std::nullopt;
  Beat& b = beat(node);
  fold(b);
  return b.heard;
}

std::size_t HeartbeatService::queue_entries() const {
  return static_cast<std::size_t>(std::count_if(
      beats_.begin(), beats_.end(), [](const Beat& b) { return b.event.pending(); }));
}

void HeartbeatService::fold(Beat& b) {
  // An instant at the clock is past once an event placed after its beat
  // runs; nothing passes a pending delivery (it sits at `next`) unfired.
  SimTime now = sim().now();
  while (b.on && (b.next < now || (b.next == now && b.prev < sim().running()))) {
    pass(b, b.audible);
  }
}

void HeartbeatService::pass(Beat& b, bool audible) {
  if (audible) b.heard = b.next;
  b.resume = b.resume || !audible;
  // After every event scheduled at this instant; node order among beats.
  b.prev = {b.next, (std::uint64_t{1} << 63) + static_cast<std::uint64_t>(&b - beats_.data())};
  b.next += period_;  // repeated addition, never t0 + k*period
}

void HeartbeatService::arm(NodeId node) {
  Beat& b = beat(node);
  if (!b.on || b.delivering || b.event.pending() || !wanted(b)) return;
  fold(b);
  b.event = sim().schedule_at(b.next, [this, node] { deliver(node); }, b.prev);
}

void HeartbeatService::deliver(NodeId node) {
  // The clock stands at the node's next instant: its beat happens now.
  bool audible = beat(node).audible;
  if (audible) {
    beat(node).resume = false;
    beat(node).delivering = true;
    for (const Listener& listener : listeners_) listener(node);
    beat(node).delivering = false;
  }
  pass(beat(node), audible);
  arm(node);
}

}  // namespace rupam
