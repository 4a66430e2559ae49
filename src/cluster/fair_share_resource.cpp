#include "cluster/fair_share_resource.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace rupam {
namespace {
// A claim is complete once its remaining service time drops below this.
// The criterion must be time-based, not work-based: residual work after
// repeated progress integration can imply an ETA smaller than the
// floating-point resolution of the current timestamp, and a work-only
// epsilon then freezes simulated time in a zero-delay event loop.
constexpr double kTimeEpsilon = 1e-9;
}  // namespace

FairShareResource::FairShareResource(Simulator& sim, std::string name, double capacity,
                                     double per_claim_cap, double concurrency_penalty)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(capacity),
      per_claim_cap_(per_claim_cap),
      concurrency_penalty_(concurrency_penalty) {
  if (capacity_ <= 0.0 || per_claim_cap_ <= 0.0) {
    throw std::invalid_argument("FairShareResource: capacity must be > 0");
  }
  if (concurrency_penalty_ < 0.0) {
    throw std::invalid_argument("FairShareResource: negative concurrency penalty");
  }
  last_update_ = sim_.now();
}

double FairShareResource::effective_capacity() const {
  double scaled = capacity_ * capacity_scale_;
  if (claims_.size() <= 1) return scaled;
  return scaled / (1.0 + concurrency_penalty_ * static_cast<double>(claims_.size() - 1));
}

double FairShareResource::share_rate() const {
  if (claims_.empty()) return 0.0;
  return std::min(per_claim_cap_ * capacity_scale_,
                  effective_capacity() / static_cast<double>(claims_.size()));
}

void FairShareResource::integrate_progress() {
  SimTime now = sim_.now();
  double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0 || claims_.empty()) return;
  busy_seconds_ += dt;
  double base = share_rate();
  virtual_clock_ += base * dt;
  for (auto& [id, claim] : claims_) {
    double drained = base * claim.speed_factor * dt;
    drained = std::min(drained, claim.remaining);
    claim.remaining -= drained;
    drained_ += drained;
  }
}

FairShareResource::ClaimId FairShareResource::start(double work, double speed_factor,
                                                    CompletionFn on_complete) {
  if (speed_factor <= 0.0) throw std::invalid_argument("FairShareResource: speed_factor <= 0");
  integrate_progress();
  ClaimId id = next_id_++;
  double eta_key = virtual_clock_ + std::max(work, 0.0) / speed_factor;
  claims_.emplace(id, Claim{std::max(work, 0.0), speed_factor, eta_key, std::move(on_complete)});
  eta_index_.emplace(eta_key, id);
  reschedule();
  return id;
}

void FairShareResource::set_capacity_scale(double scale) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("FairShareResource: capacity scale must be in (0, 1]");
  }
  integrate_progress();
  capacity_scale_ = scale;
  reschedule();
}

void FairShareResource::cancel(ClaimId id) {
  auto it = claims_.find(id);
  if (it == claims_.end()) return;
  std::size_t before = claims_.size();
  integrate_progress();
  eta_index_.erase({it->second.eta_key, id});
  claims_.erase(it);
  reschedule();
  if (on_release_) on_release_(before);
}

void FairShareResource::reschedule() {
  if (claims_.empty()) {
    pending_event_.cancel();
    pending_time_ = -1.0;
    return;
  }
  double base = share_rate();
  // The index front is the earliest finisher; its ETA is evaluated with the
  // same expression the former full scan used, so the scheduled time (and
  // thus every golden trace) is bit-identical.
  const Claim& front = claims_.find(eta_index_.begin()->second)->second;
  double rate = base * front.speed_factor;
  double delay = std::max(front.remaining / rate, 0.0);
  SimTime when = sim_.now() + delay;
  if (pending_event_.pending() && when == pending_time_) {
    // Same completion instant as the already-queued event (common when
    // several claims start at one dispatch tick on a cap-bound resource):
    // keep the queued event instead of churning the kernel heap.
    return;
  }
  pending_event_.cancel();
  pending_event_ = sim_.schedule_after(delay, [this] { on_completion_event(); });
  pending_time_ = when;
}

void FairShareResource::on_completion_event() {
  std::size_t before = claims_.size();
  integrate_progress();
  double base = share_rate();
  std::vector<CompletionFn> finished;
  for (auto it = claims_.begin(); it != claims_.end();) {
    double rate = base * it->second.speed_factor;
    if (it->second.remaining <= rate * kTimeEpsilon) {
      finished.push_back(std::move(it->second.on_complete));
      drained_ += it->second.remaining;
      eta_index_.erase({it->second.eta_key, it->first});
      it = claims_.erase(it);
    } else {
      ++it;
    }
  }
  reschedule();
  // Callbacks run after internal state is consistent; they may start new
  // claims on this resource (each start() reschedules safely).
  for (auto& fn : finished) {
    if (fn) fn();
  }
  if (on_release_ && !finished.empty()) on_release_(before);
}

double FairShareResource::utilization() const {
  if (claims_.empty()) return 0.0;
  if (per_claim_cap_ >= capacity_) {
    // A single claim can saturate this resource (NIC, disk), so "fraction
    // of capacity in use" is binary and useless for ranking. Report a
    // queue-depth proxy instead: 0 when idle, approaching 1 with depth.
    double n = static_cast<double>(claims_.size());
    return n / (n + 4.0);
  }
  double used = std::min(capacity_, per_claim_cap_ * static_cast<double>(claims_.size()));
  return used / capacity_;
}

double FairShareResource::current_rate() const {
  double base = share_rate();
  double total = 0.0;
  for (const auto& [id, claim] : claims_) total += base * claim.speed_factor;
  return total;
}

double FairShareResource::total_drained() {
  // Integrating advances last_update_ but leaves every claim's ETA (and
  // thus the pending completion event) unchanged, so no reschedule —
  // querying must not perturb event ordering. (This used to cancel and
  // re-push the completion event with a fresh sequence number, letting a
  // read-only query reorder same-time events.)
  integrate_progress();
  return drained_;
}

double FairShareResource::busy_seconds() {
  // Same integrate-only contract as total_drained().
  integrate_progress();
  return busy_seconds_;
}

}  // namespace rupam
