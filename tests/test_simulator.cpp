#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>
#include <vector>

#include "simcore/kernel_stats.hpp"
#include "simcore/simulator.hpp"

namespace rupam {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = -1.0;
  sim.schedule_at(5.0, [&] { sim.schedule_after(2.5, [&] { fired = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired, 7.5);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(nan, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.schedule_at(1.0, [&] { ++count; });
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or alter anything
  EXPECT_EQ(count, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1.0, chain);
  };
  sim.schedule_after(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, CancelledEventsSkippedInRun) {
  Simulator sim;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 50; ++i) handles.push_back(sim.schedule_at(1.0, [&] { ++fired; }));
  for (int i = 0; i < 50; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  sim.run();
  EXPECT_EQ(fired, 25);
}

TEST(Simulator, CancelRemovesFromQueueImmediately) {
  // cancel() is a true removal, not a tombstone: the queue is exactly empty
  // afterwards and empty() does not need a drain pass to notice.
  Simulator sim;
  EventHandle h = sim.schedule_at(1.0, [] {});
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 1u);
  h.cancel();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelHeavyChurnKeepsHeapBounded) {
  // The fair-share pattern: a population of far-future events that is
  // cancelled and re-pushed over and over. Live count must stay flat and
  // the arena must stop growing once the free list warms up.
  constexpr int kLive = 64;
  constexpr int kRounds = 1000;
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(kLive);
  for (int i = 0; i < kLive; ++i) {
    handles.push_back(sim.schedule_at(100.0 + i, [] {}));
  }
  const KernelStats warm = sim.stats();
  for (int round = 0; round < kRounds; ++round) {
    for (EventHandle& h : handles) h.cancel();
    for (int i = 0; i < kLive; ++i) {
      handles[static_cast<std::size_t>(i)] = sim.schedule_at(100.0 + i, [] {});
    }
  }
  const KernelStats after = sim.stats();
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kLive));
  EXPECT_LE(sim.peak_pending_events(), static_cast<std::size_t>(kLive));
  EXPECT_EQ(after.arena_slot_allocs, warm.arena_slot_allocs);  // slots reused, not grown
  EXPECT_EQ(after.events_cancelled - warm.events_cancelled,
            static_cast<std::uint64_t>(kLive) * kRounds);
  for (EventHandle& h : handles) h.cancel();
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, FifoPreservedAcrossCancelRepushCycles) {
  // Same-time FIFO must survive arbitrary cancel/repush churn: survivors
  // keep their original admission order, re-pushed events queue behind them.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 30; ++i) {
    handles.push_back(sim.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  std::vector<int> expect;
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0) {
      handles[static_cast<std::size_t>(i)].cancel();
    } else {
      expect.push_back(i);
    }
  }
  for (int i = 0; i < 30; i += 3) {  // re-admit the cancelled ids, same timestamp
    handles[static_cast<std::size_t>(i)] = sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
    expect.push_back(i);
  }
  sim.run();
  EXPECT_EQ(order, expect);
}

TEST(Simulator, StaleHandleCannotTouchReusedSlot) {
  // After an event fires its arena slot is recycled. A handle to the dead
  // event must read as not-pending and its cancel() must be a no-op even
  // when a brand-new event now occupies the same slot.
  Simulator sim;
  int first = 0, second = 0;
  EventHandle stale = sim.schedule_at(1.0, [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.pending());
  EventHandle fresh = sim.schedule_at(2.0, [&] { ++second; });  // reuses the freed slot
  stale.cancel();                                               // generation mismatch: no-op
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, SelfCancelInsideCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_at(1.0, [&] {
    ++fired;
    EXPECT_FALSE(h.pending());  // already dequeued by the time we run
    h.cancel();
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ExecutedEventsCountsFiringsOnly) {
  Simulator sim;
  const std::size_t base = sim.executed_events();
  EXPECT_EQ(base, 0u);
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EventHandle doomed = sim.schedule_at(3.0, [] {});
  doomed.cancel();
  sim.run();
  EXPECT_EQ(sim.executed_events(), 2u);  // cancellations are not executions
}

TEST(Simulator, OversizedCaptureFallsBackToHeapAndRuns) {
  // Captures beyond the inline buffer take the (counted) heap path but must
  // behave identically.
  Simulator sim;
  std::array<char, 128> payload{};
  payload[0] = 42;
  int seen = -1;
  const std::uint64_t before = sim.stats().callback_heap_allocs;
  sim.schedule_at(1.0, [payload, &seen] { seen = payload[0]; });
  EXPECT_GT(sim.stats().callback_heap_allocs, before);
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, InterleavedSimulatorsKeepIndependentStats) {
  // Two simulators stepped in lockstep in one process: every counter must
  // stay per-instance (the sweep orchestrator runs many at once).
  Simulator a;
  Simulator b;
  int fired_a = 0, fired_b = 0;
  for (int i = 0; i < 10; ++i) {
    a.schedule_at(1.0 + i, [&fired_a] { ++fired_a; });
  }
  for (int i = 0; i < 3; ++i) {
    b.schedule_at(1.0 + i, [&fired_b] { ++fired_b; });
  }
  EventHandle doomed = b.schedule_at(50.0, [] {});
  doomed.cancel();
  // Interleave: one step of each until both drain.
  while (a.step() | static_cast<int>(b.step())) {
  }
  EXPECT_EQ(fired_a, 10);
  EXPECT_EQ(fired_b, 3);
  EXPECT_EQ(a.stats().events_scheduled, 10u);
  EXPECT_EQ(a.stats().events_executed, 10u);
  EXPECT_EQ(a.stats().events_cancelled, 0u);
  EXPECT_EQ(b.stats().events_scheduled, 4u);
  EXPECT_EQ(b.stats().events_executed, 3u);
  EXPECT_EQ(b.stats().events_cancelled, 1u);
  EXPECT_EQ(a.stats().arena_slot_allocs, 10u);
  EXPECT_EQ(b.stats().arena_slot_allocs, 4u);
}

}  // namespace
}  // namespace rupam
