// Unit tests for the fault-tolerance primitives: missed-heartbeat
// liveness (NodeLivenessTracker) and SchedulerBase's
// failure-count blacklist with timed un-blacklist.
#include <gtest/gtest.h>

#include "cluster/liveness.hpp"
#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "sched/scheduler.hpp"

namespace rupam {
namespace {

TEST(NodeLiveness, TableDrivenDeadThreshold) {
  struct Case {
    double period;
    int missed;
    SimTime last_beat;
    SimTime now;
    bool expect_dead;
  };
  // Dead iff now - last_beat > period * missed (strictly: the Nth beat may
  // still be in flight at exactly the deadline).
  const Case cases[] = {
      {1.0, 3, 0.0, 3.0, false},   // exactly at the deadline: alive
      {1.0, 3, 0.0, 3.01, true},   // just past: dead
      {1.0, 3, 5.0, 7.9, false},   // recent beat keeps it alive
      {1.0, 1, 0.0, 1.5, true},    // aggressive single-miss config
      {2.0, 3, 0.0, 5.9, false},   // longer period scales the window
      {2.0, 3, 0.0, 6.1, true},
      {0.5, 4, 10.0, 11.9, false},
      {0.5, 4, 10.0, 12.1, true},
  };
  for (const Case& c : cases) {
    NodeLivenessTracker tracker;
    tracker.configure({c.period, c.missed});
    tracker.heartbeat(0, c.last_beat);
    auto newly_dead = tracker.sweep(c.now);
    EXPECT_EQ(tracker.dead(0), c.expect_dead)
        << "period=" << c.period << " missed=" << c.missed << " last=" << c.last_beat
        << " now=" << c.now;
    EXPECT_EQ(newly_dead.size(), c.expect_dead ? 1u : 0u);
  }
}

TEST(NodeLiveness, SweepReportsEachDeathOnceInNodeOrder) {
  NodeLivenessTracker tracker;
  tracker.configure({1.0, 3});
  tracker.heartbeat(2, 0.0);
  tracker.heartbeat(0, 0.0);
  tracker.heartbeat(1, 50.0);
  EXPECT_EQ(tracker.sweep(10.0), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(tracker.sweep(11.0), std::vector<NodeId>{});  // already reported
  EXPECT_TRUE(tracker.dead(0));
  EXPECT_FALSE(tracker.dead(1));
  EXPECT_EQ(tracker.tracked(), 3u);
}

TEST(NodeLiveness, HeartbeatRevivesDeadNode) {
  NodeLivenessTracker tracker;
  tracker.configure({1.0, 3});
  tracker.heartbeat(0, 0.0);
  tracker.sweep(10.0);
  ASSERT_TRUE(tracker.dead(0));
  EXPECT_TRUE(tracker.heartbeat(0, 10.5));  // revive is reported
  EXPECT_FALSE(tracker.dead(0));
  EXPECT_FALSE(tracker.heartbeat(0, 11.0));  // steady-state beat is not
  EXPECT_EQ(tracker.sweep(11.5), std::vector<NodeId>{});
}

TEST(NodeLiveness, UntrackedNodeIsNotDead) {
  NodeLivenessTracker tracker;
  tracker.configure({1.0, 3});
  EXPECT_FALSE(tracker.dead(7));
  EXPECT_EQ(tracker.sweep(100.0), std::vector<NodeId>{});
}

TEST(NodeLiveness, RejectsBadConfig) {
  NodeLivenessTracker tracker;
  EXPECT_THROW(tracker.configure({0.0, 3}), std::invalid_argument);
  EXPECT_THROW(tracker.configure({1.0, 0}), std::invalid_argument);
}

TEST(Liveness, OverdueMatchesSweep) {
  // Random heartbeat/sweep interleavings on quarter-second ticks (exact in
  // binary, so deadlines land exactly on sweep times too): right after
  // every sweep(t), overdue(n, t) must be exactly dead(n), for tracked and
  // untracked nodes alike.
  Rng rng(42, 7);
  for (int trial = 0; trial < 200; ++trial) {
    NodeLivenessTracker tracker;
    LivenessConfig cfg{0.25 * static_cast<double>(1 + rng.uniform_index(8)),
                       1 + static_cast<int>(rng.uniform_index(4))};
    tracker.configure(cfg);
    SimTime now = 0.0;
    for (int step = 0; step < 300; ++step) {
      now += 0.25 * static_cast<double>(rng.uniform_index(5));
      if (rng.uniform() < 0.6) {
        tracker.heartbeat(static_cast<NodeId>(rng.uniform_index(6)), now);
        continue;
      }
      tracker.sweep(now);
      for (NodeId n = 0; n < 8; ++n) {  // 6 and 7 never beat: untracked
        ASSERT_EQ(tracker.overdue(n, now), tracker.dead(n))
            << "trial " << trial << " node " << n << " t=" << now;
      }
    }
  }
}

// Minimal concrete scheduler exposing the protected blacklist machinery.
class TestScheduler : public SchedulerBase {
 public:
  using SchedulerBase::note_node_failure;
  using SchedulerBase::SchedulerBase;
  std::string name() const override { return "test"; }

 protected:
  void try_dispatch() override {}
};

struct BlacklistHarness {
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  std::vector<std::unique_ptr<Executor>> executors;
  std::unique_ptr<TestScheduler> sched;

  explicit BlacklistHarness(std::size_t nodes = 3) {
    Rng rng(1);
    for (std::size_t i = 0; i < nodes; ++i) cluster.add_node(thor_spec());
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(
          std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
      env.executors.push_back(executors.back().get());
    }
    sched = std::make_unique<TestScheduler>(env);
  }
};

FaultToleranceConfig ft_config() {
  FaultToleranceConfig ft;
  ft.enabled = true;
  return ft;
}

TEST(Blacklist, TableDrivenFailureThreshold) {
  struct Case {
    int failures;
    bool expect_blacklisted;
  };
  for (const auto& c : {Case{1, false}, Case{2, false}, Case{3, true}, Case{5, true}}) {
    BlacklistHarness h;
    h.sched->configure_fault_tolerance(ft_config());
    for (int i = 0; i < c.failures; ++i) h.sched->note_node_failure(1);
    EXPECT_EQ(h.sched->node_blacklisted(1), c.expect_blacklisted)
        << c.failures << " failures";
    EXPECT_EQ(h.sched->node_usable(1), !c.expect_blacklisted);
    EXPECT_TRUE(h.sched->node_usable(0));  // other nodes untouched
    EXPECT_EQ(h.sched->blacklist_events(), c.expect_blacklisted ? 1u : 0u);
  }
}

TEST(Blacklist, DisabledFaultToleranceIgnoresFailures) {
  BlacklistHarness h;
  for (int i = 0; i < 10; ++i) h.sched->note_node_failure(1);
  EXPECT_TRUE(h.sched->node_usable(1));
  EXPECT_EQ(h.sched->blacklist_events(), 0u);
}

TEST(Blacklist, FailuresOutsideWindowAreForgotten) {
  BlacklistHarness h;
  h.sched->configure_fault_tolerance(ft_config());
  h.sched->note_node_failure(1);
  h.sched->note_node_failure(1);
  // Advance past the 60 s window; the two old failures must not count.
  h.sim.schedule_at(100.0, [] {});
  while (h.sim.step()) {
  }
  h.sched->note_node_failure(1);
  h.sched->note_node_failure(1);
  EXPECT_FALSE(h.sched->node_blacklisted(1));
  h.sched->note_node_failure(1);  // third within the fresh window
  EXPECT_TRUE(h.sched->node_blacklisted(1));
}

TEST(Blacklist, TimedUnblacklistRestoresNode) {
  BlacklistHarness h;
  h.sched->configure_fault_tolerance(ft_config());
  for (int i = 0; i < 3; ++i) h.sched->note_node_failure(2);
  ASSERT_TRUE(h.sched->node_blacklisted(2));
  // node_usable flips as soon as the expiry time passes (the periodic
  // sweep also erases the entry, but usability must not wait for it).
  h.sim.schedule_at(120.5, [] {});
  while (h.sim.step()) {
  }
  EXPECT_FALSE(h.sched->node_blacklisted(2));
  EXPECT_TRUE(h.sched->node_usable(2));
}

TEST(Blacklist, NeverBlacklistsLastUsableNode) {
  BlacklistHarness h(2);
  h.sched->configure_fault_tolerance(ft_config());
  for (int i = 0; i < 3; ++i) h.sched->note_node_failure(0);
  ASSERT_TRUE(h.sched->node_blacklisted(0));
  // Node 1 is now the only usable node: it must survive any failure count.
  for (int i = 0; i < 10; ++i) h.sched->note_node_failure(1);
  EXPECT_FALSE(h.sched->node_blacklisted(1));
  EXPECT_TRUE(h.sched->node_usable(1));
}

}  // namespace
}  // namespace rupam
