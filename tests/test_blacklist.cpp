// Unit tests for the fault-tolerance primitives: SchedulerBase's
// missed-heartbeat liveness, read from a real heartbeat grid, and its
// failure-count blacklist with timed un-blacklist.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/heartbeat.hpp"
#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "metrics/event_trace.hpp"
#include "sched/scheduler.hpp"

namespace rupam {
namespace {

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
    for (std::size_t i = 0; i < nodes; ++i) cluster.add_node(thor_spec());
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}));
    }
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    sched = std::make_unique<TestScheduler>(env);
  }
};

/// A scheduler with fault tolerance on over a started heartbeat grid whose
/// delivered beats reach on_heartbeat, as in a Simulation. Node i beats at
/// i/n + k seconds. One never-launched task keeps a stage active, so the
/// liveness sweep runs every `check_interval` seconds from t = 0.
struct LivenessHarness {
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  std::vector<std::unique_ptr<Executor>> executors;
  HeartbeatService beats{cluster};
  EventTrace trace;
  std::unique_ptr<TestScheduler> sched;

  explicit LivenessHarness(std::size_t nodes = 3, SimTime check_interval = 1.0,
                           const std::vector<NodeId>& silent_from_start = {}) {
    for (std::size_t i = 0; i < nodes; ++i) cluster.add_node(thor_spec());
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}));
    }
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    env.heartbeats = &beats;
    sched = std::make_unique<TestScheduler>(env);
    FaultToleranceConfig ft;
    ft.enabled = true;
    ft.check_interval = check_interval;
    sched->configure_fault_tolerance(ft);
    Observers observers;
    observers.trace = &trace;
    sched->attach(observers);
    beats.subscribe([this](NodeId node) { sched->on_heartbeat(node); });
    for (NodeId node : silent_from_start) beats.set_dropped(node, true);
    beats.start();
    TaskSpec task;
    task.stage_name = "idle";
    TaskSet set;
    set.stage_name = "idle";
    set.tasks = {task};
    sched->submit(set);
  }

  /// Swallow `node`'s beats over [from, to) (to < 0: for good).
  void drop(NodeId node, SimTime from, SimTime to = -1.0) {
    sim.schedule_at(from, [this, node] { beats.set_dropped(node, true); });
    if (to >= 0.0) sim.schedule_at(to, [this, node] { beats.set_dropped(node, false); });
  }

  /// (time, node) of every trace row of `type`, in record order.
  std::vector<std::pair<SimTime, NodeId>> rows(TraceEventType type) const {
    std::vector<std::pair<SimTime, NodeId>> out;
    for (const TraceEvent& e : trace.events()) {
      if (e.type == type) out.emplace_back(e.time, e.node);
    }
    return out;
  }
};

TEST(NodeLiveness, TableDrivenDeadThreshold) {
  // Overdue iff the silence is strictly longer than kMissedHeartbeatsDead
  // (3) periods: the third missed beat may still be in flight at exactly
  // the deadline. Node 0 beats on whole seconds; its last is at 5.
  const SimTime deadline = 5.0 + 3.0 * kHeartbeatPeriod;
  struct Case {
    SimTime now;
    bool expect_overdue;
  };
  const Case cases[] = {
      {7.5, false},
      {deadline, false},                      // exactly at the deadline: alive
      {std::nextafter(deadline, 9.0), true},  // just past: overdue
      {9.0, true},
  };
  for (const Case& c : cases) {
    LivenessHarness h;
    h.drop(0, 5.5);
    h.sim.run(c.now);
    ASSERT_EQ(h.beats.last_beat(0), std::optional<SimTime>(5.0));
    EXPECT_EQ(h.sched->heartbeat_overdue(0), c.expect_overdue) << "t=" << c.now;
  }
  // The sweep makes the same strict comparison: silent exactly 3 s at the
  // t = 8 sweep, node 0 is declared dead by the t = 9 one.
  LivenessHarness h;
  h.drop(0, 5.5);
  h.sim.run(8.5);
  EXPECT_TRUE(h.sched->node_usable(0));
  h.sim.run(9.5);
  EXPECT_EQ(h.rows(TraceEventType::kNodeDead),
            (std::vector<std::pair<SimTime, NodeId>>{{9.0, 0}}));
  EXPECT_FALSE(h.sched->node_usable(0));
}

TEST(NodeLiveness, SweepReportsEachDeathOnceInNodeOrder) {
  LivenessHarness h;
  h.drop(2, 5.9);  // dropped first, reported second: the sweep goes by id
  h.drop(0, 5.9);
  h.sim.run(20.0);
  EXPECT_EQ(h.rows(TraceEventType::kNodeDead),
            (std::vector<std::pair<SimTime, NodeId>>{{9.0, 0}, {9.0, 2}}));
  EXPECT_FALSE(h.sched->node_usable(0));
  EXPECT_TRUE(h.sched->node_usable(1));
  EXPECT_FALSE(h.sched->node_usable(2));
}

TEST(NodeLiveness, HeartbeatRevivesDeadNode) {
  // Node 1 beats at 1/3 + k; silent from 0.5, it is declared dead at the
  // t = 4 sweep. The drop ends at 6.5, but it stays dead until the grid
  // delivers its next beat (7 + 1/3): the sweep never revives a node.
  LivenessHarness h;
  h.drop(1, 0.5, 6.5);
  h.sim.run(7.2);
  EXPECT_EQ(h.rows(TraceEventType::kNodeDead).size(), 1u);
  EXPECT_FALSE(h.sched->node_usable(1));
  EXPECT_TRUE(h.sched->heartbeat_overdue(1));
  h.sim.run(7.5);
  std::optional<SimTime> beat = h.beats.last_beat(1);
  ASSERT_TRUE(beat.has_value());
  EXPECT_GT(*beat, 7.2);
  EXPECT_EQ(h.rows(TraceEventType::kNodeRecovered),
            (std::vector<std::pair<SimTime, NodeId>>{{*beat, 1}}));
  EXPECT_TRUE(h.sched->node_usable(1));
  EXPECT_FALSE(h.sched->heartbeat_overdue(1));
  h.sim.run(30.0);  // steady beats: no further death or revival
  EXPECT_EQ(h.rows(TraceEventType::kNodeDead).size(), 1u);
  EXPECT_EQ(h.rows(TraceEventType::kNodeRecovered).size(), 1u);
}

TEST(NodeLiveness, UntrackedNodeIsNotDead) {
  // Node 2 never beats: the grid has no last beat for it, so it is never
  // overdue and never declared dead, however long the run.
  LivenessHarness h(3, 1.0, {2});
  h.sim.run(100.0);
  EXPECT_EQ(h.beats.last_beat(2), std::nullopt);
  EXPECT_FALSE(h.sched->heartbeat_overdue(2));
  EXPECT_TRUE(h.sched->node_usable(2));
  EXPECT_TRUE(h.rows(TraceEventType::kNodeDead).empty());
}

TEST(Liveness, OverdueMatchesSweep) {
  // Random drop windows on four nodes beating a quarter period apart
  // (node 3 never beats), swept every 0.5, 1 or 2 s: right after every
  // sweep, heartbeat_overdue(n) must be exactly "declared dead" (not
  // usable: nothing is blacklisted or draining here). Silences of exactly
  // 3 s land on sweep instants, so the comparison's strictness is hit.
  Rng rng(42, 7);
  for (int trial = 0; trial < 40; ++trial) {
    const SimTime interval = 0.5 * static_cast<double>(1 << rng.uniform_index(3));
    LivenessHarness h(4, interval, {3});
    for (NodeId node = 0; node < 3; ++node) {
      SimTime t = 0.0;
      for (int window = 0; window < 4; ++window) {
        SimTime from = t + 0.125 * static_cast<double>(1 + rng.uniform_index(48));
        SimTime to = from + 0.125 * static_cast<double>(1 + rng.uniform_index(64));
        h.drop(node, from, to);
        t = to;
      }
    }
    std::size_t checks = 0;
    // Posted after the sweep timer at every instant, so it runs right
    // after each sweep (same-time events run in posting order).
    std::function<void()> check = [&] {
      for (NodeId n = 0; n < 4; ++n) {
        ASSERT_EQ(h.sched->heartbeat_overdue(n), !h.sched->node_usable(n))
            << "trial " << trial << " node " << n << " t=" << h.sim.now();
      }
      ++checks;
      h.sim.schedule_after(interval, [&] { check(); });
    };
    h.sim.schedule_after(interval, [&] { check(); });
    h.sim.run(60.0);
    EXPECT_GE(checks, 29u);
    EXPECT_FALSE(h.rows(TraceEventType::kNodeDead).empty()) << "trial " << trial;
  }
}

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
