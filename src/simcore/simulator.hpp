// Discrete-event simulation kernel.
//
// Components schedule callbacks at absolute or relative simulated times and
// may cancel them (resource models reschedule completion events whenever the
// set of contending claims changes). Event ordering is (time, posting time,
// insertion sequence), so same-time events run in the order they were
// scheduled and runs are fully deterministic. A back-dated event takes the
// place of one scheduled earlier (the heartbeat grid's delivered beats).
//
// Hot-path layout: event records live in a slot-reusing arena (steady-state
// scheduling allocates nothing), an indexed binary heap of slot indices
// orders them, and cancel() removes the record from the heap in O(log n) —
// no tombstones survive, so cancel-heavy churn cannot bloat the queue.
// Handles carry a generation counter instead of a per-event shared_ptr:
// a handle whose slot has been reused simply stops matching. Callbacks use
// InlineFunction, so common capture sizes never touch the allocator.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "simcore/inline_function.hpp"
#include "simcore/kernel_stats.hpp"

namespace rupam {

class Simulator;

/// Cancellation token for a scheduled event. Default-constructed handles are
/// inert; cancel() on an already-fired or cancelled event is a no-op. A
/// handle weakly references the Simulator that issued it, so it must not be
/// used after that Simulator is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = InlineFunction<void()>;
  /// An event's place among those at its time: posting time, then sequence.
  struct Stamp {
    SimTime posted = 0.0;
    std::uint64_t seq = 0;
    auto operator<=>(const Stamp&) const = default;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `when` (>= now()).
  EventHandle schedule_at(SimTime when, Callback fn);
  /// Back-dated: among the events at `when`, `fn` runs at place `at`
  /// (at.posted <= now(); at.seq unique among pending events).
  EventHandle schedule_at(SimTime when, Callback fn, Stamp at);
  /// The place an event scheduled now would take (consumes a sequence).
  Stamp stamp() { return {now_, next_seq_++}; }
  /// Schedule `fn` `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(SimTime delay, Callback fn);

  /// Run until the event queue drains or `until` is reached, whichever is
  /// first. Returns the number of events executed.
  std::size_t run(SimTime until = kForever);
  /// Execute at most one event. Returns false if the queue is empty.
  bool step();

  /// True when no live events remain (cancelled events are removed
  /// immediately, so this is exact).
  bool empty() const { return heap_.empty(); }
  /// The running event's place (between steps: the last one run).
  const Stamp& running() const { return running_; }
  /// Time of the next event to fire, or kForever when the queue is empty.
  /// Between step() calls the simulation is quiescent, so this is the
  /// replay layer's event-boundary probe: advancing while
  /// next_event_time() <= T replays exactly the events a straight run
  /// would have executed by T.
  SimTime next_event_time() const {
    return heap_.empty() ? kForever : arena_[heap_[0]].time;
  }
  /// Live events currently queued — cancellations shrink this immediately.
  std::size_t pending_events() const { return heap_.size(); }
  /// High-watermark of pending_events() over this simulator's lifetime.
  std::size_t peak_pending_events() const { return peak_pending_; }
  std::size_t executed_events() const { return executed_; }

  /// Per-instance kernel work/allocation counters. Instances are fully
  /// isolated: concurrent Simulators in one process never share state.
  const KernelStats& stats() const { return stats_; }

  static constexpr SimTime kForever = 1e300;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNullIndex = 0xffffffffu;

  struct Event {
    SimTime time = 0.0;
    Stamp stamp;
    /// Bumped whenever the slot is released; handles whose generation no
    /// longer matches are stale (event fired, was cancelled, or slot reused).
    std::uint64_t generation = 0;
    std::uint32_t heap_pos = kNullIndex;
    std::uint32_t next_free = kNullIndex;
    Callback fn;
  };

  bool event_before(std::uint32_t a, std::uint32_t b) const {
    const Event& ea = arena_[a];
    const Event& eb = arena_[b];
    if (ea.time != eb.time) return ea.time < eb.time;
    // For undated events this is insertion order: now() never decreases.
    return ea.stamp < eb.stamp;
  }

  EventHandle post(SimTime when, Callback& fn, Stamp at);
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);
  void heap_push(std::uint32_t slot);
  void heap_remove(std::size_t pos);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  bool event_pending(std::uint32_t slot, std::uint64_t generation) const {
    return slot < arena_.size() && arena_[slot].generation == generation;
  }
  void cancel_event(std::uint32_t slot, std::uint64_t generation);

  std::vector<Event> arena_;          // slot-reusing event records
  std::vector<std::uint32_t> heap_;   // binary heap of slots, (time, stamp) order
  std::uint32_t free_head_ = kNullIndex;
  SimTime now_ = 0.0;
  Stamp running_;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  KernelStats stats_;
};

}  // namespace rupam
