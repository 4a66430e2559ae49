#include <gtest/gtest.h>

#include <vector>

#include "cluster/heartbeat.hpp"
#include "cluster/presets.hpp"
#include "simcore/periodic.hpp"

namespace rupam {
namespace {

TEST(PeriodicTaskSet, FiresMembersAtPhaseEveryPeriod) {
  Simulator sim;
  PeriodicTaskSet timers(sim, 1.0);
  std::vector<std::pair<int, SimTime>> fired;
  timers.add(0.25, [&] { fired.emplace_back(0, sim.now()); });
  timers.add(0.75, [&] { fired.emplace_back(1, sim.now()); });
  timers.start();
  sim.run(2.0);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0].first, 0);
  EXPECT_DOUBLE_EQ(fired[0].second, 0.25);
  EXPECT_EQ(fired[1].first, 1);
  EXPECT_DOUBLE_EQ(fired[1].second, 0.75);
  EXPECT_EQ(fired[2].first, 0);
  EXPECT_DOUBLE_EQ(fired[2].second, 1.25);
  EXPECT_EQ(fired[3].first, 1);
  EXPECT_DOUBLE_EQ(fired[3].second, 1.75);
}

TEST(PeriodicTaskSet, TimesMatchSelfReschedulingTimers) {
  // The coalesced facility must reproduce the exact firing times of the
  // pattern it replaces: first firing at now + phase (schedule_after(phase)),
  // then prev + period from inside the callback.
  Simulator a;
  std::vector<SimTime> expect;
  struct Rearm {
    Simulator& sim;
    std::vector<SimTime>& out;
    void fire() {
      out.push_back(sim.now());
      sim.schedule_after(0.1, [this] { fire(); });
    }
  } rearm{a, expect};
  a.schedule_after(0.037, [&rearm] { rearm.fire(); });
  a.run(1.0);

  Simulator b;
  std::vector<SimTime> got;
  PeriodicTaskSet timers(b, 0.1);
  timers.add(0.037, [&] { got.push_back(b.now()); });
  timers.start();
  b.run(1.0);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "firing " << i;  // bit-identical, not just close
  }
}

TEST(PeriodicTaskSet, ManyMembersOccupyOneQueueEntry) {
  Simulator sim;
  PeriodicTaskSet timers(sim, 1.0);
  std::size_t beats = 0;
  for (int i = 0; i < 256; ++i) {
    timers.add((static_cast<double>(i) + 0.5) / 256.0, [&] { ++beats; });
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  timers.start();
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(timers.queue_entries(), 1u);
  sim.run(3.0);
  EXPECT_EQ(beats, 3u * 256u);
  EXPECT_EQ(sim.pending_events(), 1u);  // still just the one armed event
  EXPECT_LE(sim.peak_pending_events(), 2u);
  timers.stop();
  EXPECT_EQ(timers.queue_entries(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(PeriodicTaskSet, StopHaltsAndRestartRebases) {
  Simulator sim;
  PeriodicTaskSet timers(sim, 1.0);
  std::vector<SimTime> fired;
  timers.add(0.5, [&] { fired.push_back(sim.now()); });
  timers.start();
  sim.run(1.0);
  ASSERT_EQ(fired.size(), 1u);
  timers.stop();
  sim.run(5.0);
  EXPECT_EQ(fired.size(), 1u);  // silent while stopped
  timers.start();               // re-bases the phase on now = 5.0
  sim.run(6.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[1], 5.5);
}

TEST(PeriodicTaskSet, SamePhaseMembersFireInInsertionOrder) {
  Simulator sim;
  PeriodicTaskSet timers(sim, 1.0);
  std::vector<int> order;
  timers.add(0.5, [&] { order.push_back(0); });
  timers.add(0.25, [&] { order.push_back(1); });
  timers.add(0.5, [&] { order.push_back(2); });
  timers.start();
  sim.run(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(PeriodicTaskSet, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(PeriodicTaskSet(sim, 0.0), std::invalid_argument);
  PeriodicTaskSet timers(sim, 1.0);
  EXPECT_THROW(timers.add(-0.1, [] {}), std::invalid_argument);
  EXPECT_THROW(timers.add(1.0, [] {}), std::invalid_argument);
  timers.add(0.0, [] {});
  timers.start();
  EXPECT_THROW(timers.add(0.5, [] {}), std::logic_error);
}

TEST(Heartbeat, FleetTimersOccupyOneQueueEntry) {
  // The acceptance property of the periodic wheel: an N-node fleet's
  // heartbeat timers must cost O(1) queue residency, not O(N).
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);  // 12 nodes
  HeartbeatService hb(cluster, 1.0);
  int beats = 0;
  hb.subscribe([&](NodeId) { ++beats; });
  std::size_t before = sim.pending_events();
  hb.start();
  EXPECT_EQ(sim.pending_events(), before + 1);  // +1, not +cluster.size()
  EXPECT_EQ(hb.queue_entries(), 1u);
  sim.run(1.99);  // node 0 beats at phase 0, so stop short of t = 2.0
  EXPECT_EQ(beats, 2 * static_cast<int>(cluster.size()));  // every node still beats
  EXPECT_EQ(hb.queue_entries(), 1u);
  hb.stop();
  EXPECT_EQ(hb.queue_entries(), 0u);
}

}  // namespace
}  // namespace rupam
