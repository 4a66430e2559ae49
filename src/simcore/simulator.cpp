#include "simcore/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace rupam {

void EventHandle::cancel() {
  if (sim_) sim_->cancel_event(slot_, generation_);
}

bool EventHandle::pending() const { return sim_ && sim_->event_pending(slot_, generation_); }

void Simulator::heap_sift_up(std::size_t pos) {
  std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    std::size_t parent = (pos - 1) / 2;
    if (!event_before(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    arena_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  arena_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_sift_down(std::size_t pos) {
  std::uint32_t slot = heap_[pos];
  std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && event_before(heap_[child + 1], heap_[child])) ++child;
    if (!event_before(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    arena_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = slot;
  arena_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_push(std::uint32_t slot) {
  heap_.push_back(slot);
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  heap_sift_up(heap_.size() - 1);
}

void Simulator::heap_remove(std::size_t pos) {
  std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    arena_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    // The migrated slot may need to move either way relative to `pos`.
    heap_sift_down(pos);
    heap_sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNullIndex) {
    std::uint32_t slot = free_head_;
    free_head_ = arena_[slot].next_free;
    arena_[slot].next_free = kNullIndex;
    return slot;
  }
  arena_.emplace_back();
  ++stats_.arena_slot_allocs;
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Event& ev = arena_[slot];
  ++ev.generation;  // invalidate outstanding handles
  ev.heap_pos = kNullIndex;
  ev.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_event(std::uint32_t slot, std::uint64_t generation) {
  if (!event_pending(slot, generation)) return;
  Event& ev = arena_[slot];
  std::size_t pos = ev.heap_pos;
  heap_remove(pos);
  ev.fn.reset();  // release captured state now, not at pop time
  release_slot(slot);
  ++stats_.events_cancelled;
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn) {
  if (!(when >= now_)) throw std::invalid_argument("schedule_at: time in the past");
  std::uint32_t slot = acquire_slot();
  Event& ev = arena_[slot];
  ev.time = when;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  if (ev.fn.heap_allocated()) ++stats_.callback_heap_allocs;
  heap_push(slot);
  ++stats_.events_scheduled;
  return EventHandle(this, slot, ev.generation);
}

EventHandle Simulator::schedule_after(SimTime delay, Callback fn) {
  if (delay < 0.0) throw std::invalid_argument("schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::uint32_t slot = heap_[0];
  Event& ev = arena_[slot];
  now_ = ev.time;
  Callback fn = std::move(ev.fn);
  heap_remove(0);
  release_slot(slot);
  ++executed_;
  ++stats_.events_executed;
  if (fn) fn();
  return true;
}

std::size_t Simulator::run(SimTime until) {
  std::size_t count = 0;
  while (!heap_.empty()) {
    if (arena_[heap_[0]].time > until) break;
    step();
    ++count;
  }
  if (now_ < until && until < kForever) now_ = until;
  return count;
}

}  // namespace rupam
