// Fair-share contention model for a rate-based resource (CPU, NIC, disk).
//
// A claim carries an amount of work (core-seconds or bytes) and drains at
//   rate = speed_factor * min(per_claim_cap, capacity / n_active).
// Whenever the active set changes, progress is integrated and the earliest
// completion event is rescheduled. This makes resource contention an
// emergent property of the simulation — the effect RUPAM exploits.
//
// Claims live in one vector in ascending claim id (ids only grow, so a
// start appends). Every active claim drains its normalized work
// (remaining / speed_factor) at the same capacity-side rate, so a claim's
// "virtual clock at admission + normalized work" (its eta_key) is
// invariant under both elapsed time and capacity changes, and the earliest
// finisher is the claim with the least (eta_key, id). Finding it is one
// scan of the vector — no dearer than the progress integration that
// already walks every claim whenever time advances — and the reschedule
// skips the cancel/repush entirely when the earliest completion time is
// unchanged (bit-exact comparison).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "simcore/inline_function.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

class FairShareResource {
 public:
  using ClaimId = std::uint64_t;
  using CompletionFn = InlineFunction<void()>;
  /// Called after claims leave (completion or cancel), once per event,
  /// with the active() count before they left.
  using ReleaseHook = std::function<void(std::size_t active_before)>;

  /// `capacity` is total units/s; `per_claim_cap` limits what one claim can
  /// draw (one core for CPU; typically == capacity for NIC/disk).
  /// `concurrency_penalty` models media whose aggregate throughput DROPS
  /// under concurrent streams (HDD seek thrash): effective capacity =
  /// capacity / (1 + penalty * (n_active - 1)). 0 = ideally sharable
  /// (CPU, NIC, SSD).
  FairShareResource(Simulator& sim, std::string name, double capacity, double per_claim_cap,
                    double concurrency_penalty = 0.0);

  /// Begin draining `work` units; `on_complete` fires when it reaches zero.
  /// `speed_factor` scales this claim's rate (CPU frequency ratio, GPU
  /// speedup). Zero-work claims complete on the next event.
  ClaimId start(double work, double speed_factor, CompletionFn on_complete);

  /// Abort a claim (task killed/race lost). No-op if already finished.
  void cancel(ClaimId id);

  /// Throttle (or restore) the deliverable capacity: effective capacity
  /// and per-claim cap are both multiplied by `scale` in (0, 1]. In-flight
  /// claims keep their integrated progress and are rescheduled at the new
  /// rate — this is the fault injector's transient-slowdown lever.
  void set_capacity_scale(double scale);
  double capacity_scale() const { return capacity_scale_; }

  /// Install (or clear, with null) the release hook. Admission gates on
  /// active() use it to learn when a count falls below its limit.
  void set_release_hook(ReleaseHook hook) { on_release_ = std::move(hook); }

  /// Number of in-flight claims.
  std::size_t active() const { return claims_.size(); }
  /// Fraction of capacity currently in use, in [0, 1].
  double utilization() const;
  /// Total units drained since construction (integrated lazily; querying
  /// must not perturb event ordering).
  double total_drained();
  /// Simulated seconds during which at least one claim was active
  /// (integrated lazily). Busy fraction = busy_seconds() / elapsed time.
  double busy_seconds();

  /// Currently deliverable capacity (nominal spec x throttle scale).
  double capacity() const { return capacity_ * capacity_scale_; }
  double nominal_capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  struct Claim {
    ClaimId id;
    double remaining;
    double speed_factor;
    /// Virtual clock at admission plus normalized work (see header
    /// comment). Constant for the claim's life.
    double eta_key;
    CompletionFn on_complete;
  };

  double effective_capacity() const;
  double share_rate() const;  // capacity-side rate per claim, pre speed factor
  void integrate_progress();
  void reschedule();
  void on_completion_event();

  Simulator& sim_;
  std::string name_;
  double capacity_;
  double per_claim_cap_;
  double concurrency_penalty_;
  double capacity_scale_ = 1.0;
  /// Active claims in ascending id: every walk over them (progress, the
  /// drained_ sum, completions) runs in claim-id order.
  std::vector<Claim> claims_;
  /// The finishers of the running completion event, reused from event to
  /// event (one per resource, so concurrent simulations never share it).
  std::vector<CompletionFn> finished_;
  /// Integral of share_rate() over time — the pace at which every active
  /// claim's normalized work drains.
  double virtual_clock_ = 0.0;
  ClaimId next_id_ = 1;
  SimTime last_update_ = 0.0;
  double drained_ = 0.0;
  double busy_seconds_ = 0.0;
  ReleaseHook on_release_;
  EventHandle pending_event_;
  SimTime pending_time_ = -1.0;  // absolute time of the pending completion
};

}  // namespace rupam
