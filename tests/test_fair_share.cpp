#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fair_share_resource.hpp"
#include "common/rng.hpp"

namespace rupam {
namespace {

TEST(FairShare, SingleClaimServiceTime) {
  Simulator sim;
  FairShareResource disk(sim, "disk", 100.0, 100.0);
  SimTime done = -1.0;
  disk.start(500.0, 1.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(FairShare, TwoEqualClaimsShare) {
  Simulator sim;
  FairShareResource disk(sim, "disk", 100.0, 100.0);
  SimTime d1 = -1.0, d2 = -1.0;
  disk.start(500.0, 1.0, [&] { d1 = sim.now(); });
  disk.start(500.0, 1.0, [&] { d2 = sim.now(); });
  sim.run();
  // Each gets 50 units/s -> both finish at 10s.
  EXPECT_DOUBLE_EQ(d1, 10.0);
  EXPECT_DOUBLE_EQ(d2, 10.0);
}

TEST(FairShare, PerClaimCapLimitsSingleClaim) {
  Simulator sim;
  // 8-core CPU: one claim draws at most 1 core.
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  SimTime done = -1.0;
  cpu.start(4.0, 1.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(FairShare, NoContentionBelowCoreCount) {
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  std::vector<SimTime> done(8, -1.0);
  for (int i = 0; i < 8; ++i) {
    cpu.start(4.0, 1.0, [&done, i, &sim] { done[static_cast<std::size_t>(i)] = sim.now(); });
  }
  sim.run();
  for (SimTime d : done) EXPECT_DOUBLE_EQ(d, 4.0);
}

TEST(FairShare, ContentionBeyondCoreCount) {
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 2.0, 1.0);
  int finished = 0;
  SimTime last = 0.0;
  for (int i = 0; i < 4; ++i) {
    cpu.start(2.0, 1.0, [&] {
      ++finished;
      last = sim.now();
    });
  }
  sim.run();
  // 4 claims x 2 units over a 2-unit/s resource = 4 seconds total.
  EXPECT_EQ(finished, 4);
  EXPECT_DOUBLE_EQ(last, 4.0);
}

TEST(FairShare, SpeedFactorScalesRate) {
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  SimTime fast = -1.0, slow = -1.0;
  cpu.start(10.0, 2.0, [&] { fast = sim.now(); });
  cpu.start(10.0, 0.5, [&] { slow = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fast, 5.0);
  EXPECT_DOUBLE_EQ(slow, 20.0);
}

TEST(FairShare, LateArrivalSlowsEarlier) {
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  SimTime d1 = -1.0;
  net.start(1000.0, 1.0, [&] { d1 = sim.now(); });  // alone: 10s
  sim.schedule_at(5.0, [&] { net.start(1000.0, 1.0, nullptr); });
  sim.run();
  // First 5s at 100/s -> 500 left; then shared 50/s -> 10 more seconds.
  EXPECT_DOUBLE_EQ(d1, 15.0);
}

TEST(FairShare, CancelFreesBandwidth) {
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  SimTime d1 = -1.0;
  net.start(1000.0, 1.0, [&] { d1 = sim.now(); });
  auto victim = net.start(1000.0, 1.0, [&] { FAIL() << "cancelled claim completed"; });
  sim.schedule_at(5.0, [&] { net.cancel(victim); });
  sim.run();
  // 5s shared (250 done) + 750 at full rate = 12.5s.
  EXPECT_DOUBLE_EQ(d1, 12.5);
}

TEST(FairShare, CancelUnknownIdIsNoop) {
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  net.cancel(12345);
  EXPECT_EQ(net.active(), 0u);
}

TEST(FairShare, ZeroWorkCompletesImmediately) {
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  SimTime done = -1.0;
  net.start(0.0, 1.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(FairShare, TinyResidualWorkTerminates) {
  // Regression: residual work below the float resolution of `now` must
  // complete rather than freeze simulated time (see kTimeEpsilon).
  Simulator sim;
  FairShareResource net(sim, "net", 5e8, 5e8);
  int finished = 0;
  for (int i = 0; i < 7; ++i) {
    net.start(12.0 * 1024 * 1024 * (1.0 + 1e-13 * i), 1.0, [&] { ++finished; });
  }
  std::size_t events = sim.run(1000.0);
  EXPECT_EQ(finished, 7);
  EXPECT_LT(events, 1000u);
}

TEST(FairShare, UtilizationTracksLoad) {
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 0.0);
  cpu.start(100.0, 1.0, nullptr);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 1.0 / 8.0);
  for (int i = 0; i < 9; ++i) cpu.start(100.0, 1.0, nullptr);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 1.0);  // saturated past 8 claims
}

TEST(FairShare, SaturatingResourceUsesDepthProxy) {
  Simulator sim;
  FairShareResource disk(sim, "disk", 100.0, 100.0);
  disk.start(1e9, 1.0, nullptr);
  double u1 = disk.utilization();
  disk.start(1e9, 1.0, nullptr);
  double u2 = disk.utilization();
  EXPECT_GT(u1, 0.0);
  EXPECT_LT(u1, 1.0);
  EXPECT_GT(u2, u1);  // deeper queue reports higher utilization
}

TEST(FairShare, ConcurrencyPenaltyDegradesThroughput) {
  Simulator sim;
  FairShareResource hdd(sim, "hdd", 100.0, 100.0, 0.1);
  SimTime done = 0.0;
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    hdd.start(100.0, 1.0, [&] {
      ++finished;
      done = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(finished, 4);
  // Effective capacity 100/(1+0.1*3) = 76.9/s for 400 units -> 5.2s.
  EXPECT_NEAR(done, 400.0 / (100.0 / 1.3), 1e-9);
}

TEST(FairShare, NoPenaltyForSingleStream) {
  Simulator sim;
  FairShareResource hdd(sim, "hdd", 100.0, 100.0, 0.1);
  SimTime done = -1.0;
  hdd.start(200.0, 1.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(FairShare, TotalDrainedConserved) {
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  for (int i = 0; i < 5; ++i) net.start(100.0, 1.0, nullptr);
  sim.run();
  EXPECT_NEAR(net.total_drained(), 500.0, 1e-6);
}

TEST(FairShare, TotalDrainedIsObservationOnly) {
  // Regression: total_drained() used to call reschedule(), which cancelled
  // and re-pushed the pending completion event. That gave the completion a
  // fresh (later) sequence number, so an unrelated event at the same
  // timestamp jumped ahead of it. Observers must not perturb the trace.
  Simulator sim;
  FairShareResource net(sim, "net", 100.0, 100.0);
  std::vector<std::string> order;
  net.start(500.0, 1.0, [&] { order.push_back("completion"); });  // fires at 5.0, early seq
  sim.schedule_at(5.0, [&] { order.push_back("probe"); });        // same time, later seq
  double drained_at_2 = -1.0;
  sim.schedule_at(2.0, [&] { drained_at_2 = net.total_drained(); });
  sim.run();
  EXPECT_DOUBLE_EQ(drained_at_2, 200.0);
  // The completion kept its original admission order relative to the probe.
  EXPECT_EQ(order, (std::vector<std::string>{"completion", "probe"}));
}

TEST(FairShare, RedundantReschedulesKeepEventOrder) {
  // Admitting a claim that does not change the earliest completion time must
  // not cancel/re-push the pending event: the completion keeps its original
  // sequence number and still fires ahead of a same-time probe.
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  std::vector<std::string> order;
  cpu.start(4.0, 1.0, [&] { order.push_back("completion"); });  // finishes at 4.0
  sim.schedule_at(4.0, [&] { order.push_back("probe"); });
  cpu.start(10.0, 1.0, nullptr);  // later ETA: earliest completion unchanged
  sim.run(5.0);
  EXPECT_EQ(order, (std::vector<std::string>{"completion", "probe"}));
}

TEST(FairShare, CancellingEarliestClaimRetargetsCompletion) {
  // The pending event tracks the earliest-ETA claim; cancelling that claim
  // must promote the next one in the index.
  Simulator sim;
  FairShareResource cpu(sim, "cpu", 8.0, 1.0);
  SimTime b_done = -1.0;
  FairShareResource::ClaimId a = cpu.start(2.0, 1.0, [] { FAIL() << "cancelled claim completed"; });
  cpu.start(6.0, 1.0, [&] { b_done = sim.now(); });
  sim.schedule_at(1.0, [&] { cpu.cancel(a); });
  sim.run();
  EXPECT_DOUBLE_EQ(b_done, 6.0);
}

TEST(FairShare, StaggeredChurnMatchesProcessorSharingReference) {
  // Heavy exercise for the incremental earliest-ETA index: 40 claims with
  // mixed speed factors arrive staggered and some are cancelled mid-flight.
  // Completion times are checked against an independent processor-sharing
  // reference integrated directly in the test.
  constexpr int kClaims = 40;
  constexpr double kCapacity = 100.0;
  constexpr double kCancelTime = 6.0;
  struct Spec {
    double arrival, work, speed;
    bool cancelled;
  };
  std::vector<Spec> specs;
  for (int i = 0; i < kClaims; ++i) {
    specs.push_back({0.1 * i, 50.0 + 17.0 * ((i * 7) % 13), 0.5 + 0.25 * (i % 4), i % 5 == 3});
  }

  // Reference: equal capacity split (per-claim cap == capacity here), each
  // active claim drains at share * speed.
  std::vector<double> ref_done(kClaims, -1.0);
  {
    std::vector<double> remaining(kClaims);
    std::vector<bool> active(kClaims, false);
    for (int i = 0; i < kClaims; ++i) {
      remaining[static_cast<std::size_t>(i)] = specs[static_cast<std::size_t>(i)].work;
    }
    double t = 0.0;
    bool cancels_done = false;
    for (int guard = 0; guard < 10000; ++guard) {
      // Process everything due at the current instant: cancels, then arrivals.
      if (!cancels_done && t >= kCancelTime) {
        for (int i = 0; i < kClaims; ++i) {
          if (specs[static_cast<std::size_t>(i)].cancelled) active[static_cast<std::size_t>(i)] = false;
        }
        cancels_done = true;
      }
      for (int i = 0; i < kClaims; ++i) {
        const Spec& s = specs[static_cast<std::size_t>(i)];
        if (!active[static_cast<std::size_t>(i)] && ref_done[static_cast<std::size_t>(i)] < 0.0 &&
            remaining[static_cast<std::size_t>(i)] > 1e-9 && s.arrival <= t &&
            !(s.cancelled && cancels_done)) {
          active[static_cast<std::size_t>(i)] = true;
        }
      }
      int n_active = static_cast<int>(std::count(active.begin(), active.end(), true));
      double share = n_active > 0 ? std::min(kCapacity, kCapacity / n_active) : 0.0;
      double next = std::numeric_limits<double>::infinity();
      for (int i = 0; i < kClaims; ++i) {
        const Spec& s = specs[static_cast<std::size_t>(i)];
        if (!active[static_cast<std::size_t>(i)] && ref_done[static_cast<std::size_t>(i)] < 0.0 &&
            remaining[static_cast<std::size_t>(i)] > 1e-9 && s.arrival > t) {
          next = std::min(next, s.arrival);
        }
        if (active[static_cast<std::size_t>(i)]) {
          next = std::min(next, t + remaining[static_cast<std::size_t>(i)] / (share * s.speed));
        }
      }
      if (!cancels_done && kCancelTime > t) next = std::min(next, kCancelTime);
      if (!std::isfinite(next)) break;
      double dt = next - t;
      for (int i = 0; i < kClaims; ++i) {
        if (active[static_cast<std::size_t>(i)]) {
          remaining[static_cast<std::size_t>(i)] -= share * specs[static_cast<std::size_t>(i)].speed * dt;
        }
      }
      t = next;
      for (int i = 0; i < kClaims; ++i) {
        if (active[static_cast<std::size_t>(i)] && remaining[static_cast<std::size_t>(i)] <= 1e-9) {
          active[static_cast<std::size_t>(i)] = false;
          ref_done[static_cast<std::size_t>(i)] = t;
        }
      }
    }
  }

  Simulator sim;
  FairShareResource res(sim, "res", kCapacity, kCapacity);
  std::vector<SimTime> done(kClaims, -1.0);
  std::vector<FairShareResource::ClaimId> ids(kClaims, 0);
  for (int i = 0; i < kClaims; ++i) {
    const Spec& s = specs[static_cast<std::size_t>(i)];
    sim.schedule_at(s.arrival, [&res, &done, &ids, &sim, s, i] {
      ids[static_cast<std::size_t>(i)] =
          res.start(s.work, s.speed, [&done, &sim, i] { done[static_cast<std::size_t>(i)] = sim.now(); });
    });
  }
  sim.schedule_at(kCancelTime, [&] {
    for (int i = 0; i < kClaims; ++i) {
      if (specs[static_cast<std::size_t>(i)].cancelled && done[static_cast<std::size_t>(i)] < 0.0) {
        res.cancel(ids[static_cast<std::size_t>(i)]);
      }
    }
  });
  sim.run();

  EXPECT_EQ(res.active(), 0u);
  for (int i = 0; i < kClaims; ++i) {
    const Spec& s = specs[static_cast<std::size_t>(i)];
    if (s.cancelled && ref_done[static_cast<std::size_t>(i)] < 0.0) {
      EXPECT_LT(done[static_cast<std::size_t>(i)], 0.0) << "claim " << i << " should have been cancelled";
    } else {
      ASSERT_GE(done[static_cast<std::size_t>(i)], 0.0) << "claim " << i << " never completed";
      EXPECT_NEAR(done[static_cast<std::size_t>(i)], ref_done[static_cast<std::size_t>(i)], 1e-6)
          << "claim " << i;
    }
  }
}

// One resource driven by a seeded mix of start, cancel and
// set_capacity_scale calls. Every completion (claim index, instant) in
// order, and total_drained()/busy_seconds() sampled every 4 s and at the
// end, so the pins below check the model's arithmetic bit for bit.
struct SequenceLog {
  std::vector<std::pair<int, SimTime>> completions;
  std::vector<double> drained;
  std::vector<double> busy;
};

SequenceLog run_seeded_sequence(std::uint64_t seed) {
  Simulator sim;
  // A per-claim cap below capacity and a concurrency penalty, so both arms
  // of the share rate's min and the penalty term take part.
  FairShareResource res(sim, "res", 4.0, 1.5, 0.05);
  Rng rng(seed);
  SequenceLog log;
  std::vector<FairShareResource::ClaimId> ids;
  constexpr double kSpeeds[] = {0.5, 0.8, 1.0, 1.3, 2.0};
  for (int op = 0; op < 80; ++op) {
    SimTime at = rng.uniform(0.0, 40.0);
    double pick = rng.uniform();
    if (pick < 0.6) {
      double work = rng.uniform() < 0.05 ? 0.0 : rng.uniform(0.5, 20.0);
      double speed = kSpeeds[rng.uniform_index(5)];
      sim.schedule_at(at, [&sim, &res, &ids, &log, work, speed] {
        int index = static_cast<int>(ids.size());
        ids.push_back(res.start(work, speed, [&sim, &log, index] {
          log.completions.emplace_back(index, sim.now());
        }));
      });
    } else if (pick < 0.8) {
      std::uint32_t nth = rng.next_u32();
      sim.schedule_at(at, [&res, &ids, nth] {
        if (!ids.empty()) res.cancel(ids[nth % ids.size()]);
      });
    } else {
      double scale = rng.uniform(0.3, 1.0);
      sim.schedule_at(at, [&res, scale] { res.set_capacity_scale(scale); });
    }
  }
  for (int k = 1; k <= 12; ++k) {
    sim.schedule_at(4.0 * k, [&res, &log] {
      log.drained.push_back(res.total_drained());
      log.busy.push_back(res.busy_seconds());
    });
  }
  sim.run();
  log.drained.push_back(res.total_drained());
  log.busy.push_back(res.busy_seconds());
  return log;
}

// Captured from the std::map/std::set implementation of the model.
void expect_pinned(const SequenceLog& log) {
  const std::vector<std::pair<int, SimTime>> kCompletions = {
      {6, 0x1.390f71228e848p+3}, {7, 0x1.3d04333d6edf3p+4}, {4, 0x1.40cb599c690cfp+4},
      {24, 0x1.897ea170398d2p+4}, {22, 0x1.fca86f0f41587p+4}, {36, 0x1.0dd2c36962911p+5},
      {23, 0x1.279e9b43fdacp+5}, {38, 0x1.475f744ef6f31p+5}, {29, 0x1.0b7d57010d9ccp+6},
      {46, 0x1.3ac7c4f0e8b7ep+6}, {37, 0x1.475d986b55501p+6}, {44, 0x1.6056aa037af16p+6},
      {26, 0x1.66c8881fb586dp+6}, {5, 0x1.98f4050be5901p+6}, {11, 0x1.b9723ba7bd34fp+6},
      {35, 0x1.c4b296d09d7f4p+6}, {13, 0x1.f79fa1fcd3692p+6}, {33, 0x1.fa7c1cc8d6954p+6},
      {42, 0x1.2120a786dad0ep+7}, {14, 0x1.251ca680c1aefp+7}, {30, 0x1.2af3079122645p+7},
      {32, 0x1.3ee05fb2b2717p+7}, {45, 0x1.471aafb03ba58p+7}, {10, 0x1.47559b8d93f0bp+7},
      {12, 0x1.5146a6d5b8574p+7}, {21, 0x1.5e59cb2454815p+7}, {31, 0x1.766c4252ed98ap+7},
      {17, 0x1.84e007dc104ddp+7}, {47, 0x1.9ee4ac90f1dddp+7}, {41, 0x1.a3bc5049cc4a1p+7},
      {34, 0x1.a5f9d8321ee2ap+7}, {15, 0x1.a9503dca5bd4fp+7}, {39, 0x1.b919e8c6e3581p+7},
      {40, 0x1.bc86172d239f4p+7}, {49, 0x1.c7d9a7a59a037p+7}, {48, 0x1.cc74ea6d9bc6cp+7},
      {28, 0x1.ceb3c41c61989p+7}, {16, 0x1.cf7af41d05f21p+7}, {20, 0x1.d2ab75181953ep+7},
      {19, 0x1.d33b4b631e207p+7}, {25, 0x1.de532f781c88p+7},
  };
  const std::vector<double> kDrained = {
      0x1.0b2efad0f341ep+1, 0x1.a2fb73ac5759ep+3, 0x1.b4d9b0b31d39dp+4,
      0x1.15a3349b10e2dp+5, 0x1.5140c88ef5929p+5, 0x1.8853be3c3b66cp+5,
      0x1.bf580e1579f61p+5, 0x1.ed6193f3ae792p+5, 0x1.094e625efc9f4p+6,
      0x1.240ab752f882ap+6, 0x1.3cb21dea54b29p+6, 0x1.55526b3da8854p+6,
      0x1.8eb7163008062p+8,
  };
  const std::vector<double> kBusy = {
      0x1.4b5959fe1120ap+1, 0x1.a5acacff08905p+2, 0x1.52d6567f84482p+3,
      0x1.d2d6567f84482p+3, 0x1.296b2b3fc2241p+4, 0x1.696b2b3fc2241p+4,
      0x1.a96b2b3fc2241p+4, 0x1.e96b2b3fc2241p+4, 0x1.14b5959fe1121p+5,
      0x1.34b5959fe1121p+5, 0x1.54b5959fe1121p+5, 0x1.74b5959fe1121p+5,
      0x1.db8094e014cc8p+7,
  };
  EXPECT_EQ(log.completions, kCompletions);
  EXPECT_EQ(log.drained, kDrained);
  EXPECT_EQ(log.busy, kBusy);
}

TEST(FairShare, SeededSequenceMatchesPinnedBits) { expect_pinned(run_seeded_sequence(20260419)); }

TEST(FairShare, SeededSequenceIsThreadIndependent) {
  // Two simulations at once (as a threaded sweep runs them): each
  // resource's state, scratch included, is its own.
  SequenceLog a, b;
  std::thread ta([&a] { a = run_seeded_sequence(20260419); });
  std::thread tb([&b] { b = run_seeded_sequence(20260419); });
  ta.join();
  tb.join();
  expect_pinned(a);
  expect_pinned(b);
}

TEST(FairShare, EqualEtaKeysFollowClaimIdOrder) {
  // Two claims with equal normalized work (0.5 / 0.1 == 2.5 / 0.5) but
  // different speed factors: their completion instants, evaluated from
  // each claim's own numbers, differ in the last bit. The pending
  // completion follows the lower claim id, and both finish in that one
  // event, their callbacks in claim-id order.
  ASSERT_EQ(0.5 / 0.1, 2.5 / 0.5);
  const SimTime slow_first = 0.5 / (1.5 * 0.1);
  const SimTime fast_first = 2.5 / (1.5 * 0.5);
  ASSERT_NE(slow_first, fast_first);
  for (bool slow_starts : {true, false}) {
    Simulator sim;
    FairShareResource nic(sim, "nic", 3.0, 3.0);
    std::vector<std::pair<std::string, SimTime>> done;
    auto start_slow = [&] { nic.start(0.5, 0.1, [&] { done.emplace_back("slow", sim.now()); }); };
    auto start_fast = [&] { nic.start(2.5, 0.5, [&] { done.emplace_back("fast", sim.now()); }); };
    if (slow_starts) {
      start_slow();
      start_fast();
    } else {
      start_fast();
      start_slow();
    }
    sim.run();
    using Log = std::vector<std::pair<std::string, SimTime>>;
    if (slow_starts) {
      EXPECT_EQ(done, (Log{{"slow", slow_first}, {"fast", slow_first}}));
    } else {
      EXPECT_EQ(done, (Log{{"fast", fast_first}, {"slow", fast_first}}));
    }
    EXPECT_EQ(sim.executed_events(), 1u);
  }
}

TEST(FairShare, CompletionCallbacksStartAndCancelOnTheirOwnResource) {
  // A and B finish in one event. A's callback starts D (zero work) and E,
  // and cancels B, which finished in the same event (a no-op: B's callback
  // still runs). B's callback cancels E and starts F. D's completion, the
  // next event at the same instant, cancels C. Only F is left to finish.
  Simulator sim;
  FairShareResource nic(sim, "nic", 12.0, 12.0);
  std::vector<std::pair<std::string, SimTime>> done;
  auto log = [&](const char* name) {
    return [&done, &sim, name] { done.emplace_back(name, sim.now()); };
  };
  FairShareResource::ClaimId b = 0, c = 0, e = 0;
  nic.start(8.0, 1.0, [&] {
    done.emplace_back("A", sim.now());
    nic.start(0.0, 1.0, [&] {
      done.emplace_back("D", sim.now());
      nic.cancel(c);
    });
    nic.cancel(b);
    e = nic.start(6.0, 1.0, log("E"));
  });
  b = nic.start(8.0, 1.0, [&] {
    done.emplace_back("B", sim.now());
    nic.cancel(e);
    nic.start(4.0, 1.0, log("F"));
  });
  c = nic.start(20.0, 1.0, log("C"));
  sim.run();
  // Three claims share 12 units/s until t = 2; F then runs alone.
  using Log = std::vector<std::pair<std::string, SimTime>>;
  EXPECT_EQ(done, (Log{{"A", 2.0}, {"B", 2.0}, {"D", 2.0}, {"F", 2.0 + 4.0 / 12.0}}));
  EXPECT_EQ(nic.active(), 0u);
  EXPECT_EQ(nic.total_drained(), 28.0);
  EXPECT_EQ(nic.busy_seconds(), 2.0 + 4.0 / 12.0);
}

TEST(FairShare, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(FairShareResource(sim, "x", 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(FairShareResource(sim, "x", 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(FairShareResource(sim, "x", 1.0, 1.0, -0.5), std::invalid_argument);
  FairShareResource ok(sim, "ok", 1.0, 1.0);
  EXPECT_THROW(ok.start(1.0, 0.0, nullptr), std::invalid_argument);
}

// Property: with N equal claims, completion time is N * work / capacity
// regardless of N (work conservation).
class WorkConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkConservationTest, MakespanMatchesTotalWork) {
  int n = GetParam();
  Simulator sim;
  FairShareResource r(sim, "r", 50.0, 50.0);
  SimTime last = 0.0;
  for (int i = 0; i < n; ++i) {
    r.start(100.0, 1.0, [&] { last = sim.now(); });
  }
  sim.run();
  EXPECT_NEAR(last, n * 100.0 / 50.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ClaimCounts, WorkConservationTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace rupam
