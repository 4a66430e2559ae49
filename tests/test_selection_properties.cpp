// Property tests for the two indexed placement paths.
//
// QueueRowIndex: over seeded random row sets, Algorithm 2 run on only the
// candidate rows picks the same row as Algorithm 2 run on the whole queue,
// under FIFO (one pool) and FAIR (pools tried in a given order).
//
// StageAware: every placement of a real run, including the several made
// inside one dispatch round, lands on the brute-force minimum (score, id)
// over the ready nodes, while a replay interceptor redirects some launches
// elsewhere so the re-keyed node is not always the chosen one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "common/rng.hpp"
#include "sched/baselines/capability_scheduler.hpp"
#include "sched/rupam/dispatcher.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

/// One random queue row, with its locality on every node of a small
/// cluster (what locality_for would say there).
struct RandomRow {
  QueueRowIndex::Row facts;
  std::size_t history = 0;
  double cost = 0.0;
  std::vector<Locality> locality;  // by NodeId
  bool live = true;
};

DispatchTaskView view_of(const RandomRow& row, std::size_t index, NodeId node, bool idle_gpu) {
  DispatchTaskView v;
  v.index = index;
  v.peak_memory = row.facts.peak_memory;
  v.locality = row.locality[static_cast<std::size_t>(node)];
  if (row.facts.lock != kInvalidNode && (!row.facts.gpu_lock || idle_gpu)) {
    v.opt_executor = row.facts.lock;
    v.history_size = row.history;
  }
  v.expected_cost = row.cost;
  return v;
}

/// The scheduler's selection over a set of views: Algorithm 2 once when
/// the views span one pool, else pool by pool in `pool_order`.
std::optional<std::size_t> select(const std::vector<DispatchTaskView>& views,
                                  const std::vector<RandomRow>& rows,
                                  const std::vector<std::uint32_t>& pool_order, NodeId node,
                                  Bytes free_memory, const DispatcherPolicy& policy) {
  std::map<std::uint32_t, std::vector<DispatchTaskView>> by_pool;
  for (const DispatchTaskView& v : views) by_pool[rows[v.index].facts.pool].push_back(v);
  if (by_pool.size() <= 1) return algorithm2_select(views, node, free_memory, policy);
  for (std::uint32_t pool : pool_order) {
    auto it = by_pool.find(pool);
    if (it == by_pool.end()) continue;
    if (auto chosen = algorithm2_select(it->second, node, free_memory, policy)) return chosen;
  }
  return std::nullopt;
}

TEST(SelectionProperties, CandidateFilterPicksWhatTheFullQueuePicks) {
  constexpr int kNodes = 6;
  constexpr int kRowSets = 12000;
  const Bytes memories[] = {0.5 * kGiB, 1.0 * kGiB, 2.0 * kGiB, 3.0 * kGiB};
  const Bytes free_memories[] = {1.0 * kGiB, 2.0 * kGiB, 3.5 * kGiB, 8.0 * kGiB};
  Rng rng(20260417);
  QueueRowIndex index;
  std::vector<std::uint32_t> candidates;
  // What decided each comparison, so the test proves it covered them all.
  std::map<std::string, int> seen;
  int compared = 0;

  for (int set = 0; set < kRowSets; ++set) {
    DispatcherPolicy policy;
    policy.opt_executor_lock = rng.uniform() < 0.85;
    policy.memory_guard = rng.uniform() < 0.85;
    policy.memory_headroom = rng.uniform() < 0.5 ? 0.0 : 0.5 * kGiB;
    auto pools = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
    std::vector<RandomRow> rows(rng.uniform_index(14));
    index.clear(policy);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      RandomRow& row = rows[r];
      row.facts.pool = static_cast<std::uint32_t>(rng.uniform_index(pools));
      row.facts.peak_memory = memories[rng.uniform_index(4)];
      double lock_draw = rng.uniform();
      row.facts.lock = lock_draw < 0.4 ? kInvalidNode
                                       : static_cast<NodeId>(rng.uniform_index(kNodes));
      row.facts.gpu_lock = rng.uniform() < 0.3;
      row.history = rng.uniform() < 0.5 ? kNumResourceKinds : rng.uniform_index(kNumResourceKinds);
      row.cost = static_cast<double>(rng.uniform_index(3));  // ties on purpose
      row.live = rng.uniform() < 0.8;
      auto at = static_cast<std::uint32_t>(r);
      ASSERT_EQ(index.add(row.facts), at);
      row.locality.resize(kNodes);
      for (NodeId n = 0; n < kNodes; ++n) {
        double draw = rng.uniform();
        Locality l = draw < 0.15   ? Locality::kProcessLocal
                     : draw < 0.35 ? Locality::kNodeLocal
                                   : Locality::kAny;
        row.locality[static_cast<std::size_t>(n)] = l;
        if (l != Locality::kAny) index.link(n, at);
      }
      if (rng.uniform() < 0.2) index.link(static_cast<NodeId>(rng.uniform_index(kNodes)), at);
    }
    std::vector<std::uint32_t> pool_order(pools);
    for (std::uint32_t p = 0; p < pools; ++p) pool_order[p] = p;
    for (std::size_t i = pools; i > 1; --i) {
      std::swap(pool_order[i - 1], pool_order[rng.uniform_index(i)]);
    }

    // Several offers per row set, rows dying between them (a launch only
    // ever kills rows inside a round), so the dead-head skip is exercised.
    for (int offer = 0; offer < 3; ++offer) {
      auto node = static_cast<NodeId>(rng.uniform_index(kNodes));
      Bytes free_memory = free_memories[rng.uniform_index(4)];
      bool idle_gpu = rng.uniform() < 0.5;
      auto live = [&](std::uint32_t r) { return rows[r].live; };

      std::vector<DispatchTaskView> full;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].live) full.push_back(view_of(rows[r], r, node, idle_gpu));
      }
      auto expected = select(full, rows, pool_order, node, free_memory, policy);

      index.candidates(node, free_memory, idle_gpu, live, candidates);
      ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
      ASSERT_EQ(std::adjacent_find(candidates.begin(), candidates.end()), candidates.end());
      std::vector<DispatchTaskView> filtered;
      for (std::uint32_t r : candidates) {
        ASSERT_TRUE(rows[r].live);
        filtered.push_back(view_of(rows[r], r, node, idle_gpu));
      }
      auto actual = select(filtered, rows, pool_order, node, free_memory, policy);
      ASSERT_EQ(actual, expected) << "row set " << set << " offer " << offer;
      std::size_t examined = 0;
      ASSERT_EQ(index.any_live(live, examined), !full.empty());
      ++compared;

      if (!expected) {
        ++seen["nothing fits"];
      } else {
        const RandomRow& win = rows[*expected];
        DispatchTaskView v = view_of(win, *expected, node, idle_gpu);
        bool guard_fails =
            policy.memory_guard && v.peak_memory + policy.memory_headroom > free_memory;
        if (policy.opt_executor_lock && v.opt_executor == node) {
          ++seen[guard_fails ? "lock bypasses guard" : "locked here"];
        } else if (policy.opt_executor_lock && v.opt_executor != kInvalidNode) {
          ++seen["locked elsewhere"];
        } else {
          ++seen[std::string("free ") + std::string(to_string(v.locality))];
        }
        if (win.facts.gpu_lock && win.facts.lock == node && !idle_gpu) ++seen["gpu lock ignored"];
      }
      std::set<std::uint32_t> pools_live;
      for (const RandomRow& row : rows) {
        if (row.live) pools_live.insert(row.facts.pool);
      }
      ++seen["pools=" + std::to_string(pools_live.size())];
      for (RandomRow& row : rows) {
        if (row.live && rng.uniform() < 0.25) row.live = false;
      }
    }
  }
  EXPECT_GE(compared, 3 * kRowSets);
  for (const char* key :
       {"nothing fits", "lock bypasses guard", "locked here", "locked elsewhere",
        "free PROCESS_LOCAL", "free NODE_LOCAL", "free ANY", "gpu lock ignored", "pools=1",
        "pools=2", "pools=3"}) {
    EXPECT_GT(seen[key], 0) << "no case where the winner was: " << key;
  }
}

/// Every primary placement StageAware makes in a KMeans run goes to the
/// brute-force minimum (score, id) over the ready nodes for its stage's
/// kind, scored from a full metrics snapshot as the pre-heap path did.
/// Speculation is off, so every launch is a primary placement; later
/// iterations' stages are GPU-bound once earlier tasks used devices. Every
/// fifth launch is redirected to the worst ready node, so the node a launch
/// lands on is not always the one the heap chose.
TEST(SelectionProperties, StageAwareHeapMatchesBruteForceMinimum) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kStageAware;
  cfg.speculation.enabled = false;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("KMeans"), sim.cluster().node_ids(),
                                   /*seed=*/3, /*iterations_override=*/3);
  std::map<StageId, std::string> stage_names;
  for (const Job& job : app.jobs) {
    for (const Stage& stage : job.stages) stage_names[stage.id] = stage.name;
  }
  auto& sched = dynamic_cast<CapabilityScheduler&>(sim.scheduler());
  Cluster& cluster = sim.cluster();

  auto ranked_ready = [&](ResourceKind kind) {
    std::vector<std::pair<double, NodeId>> ready;
    for (NodeId id : cluster.node_ids()) {
      Executor& exec = sim.executor(id);
      if (exec.free_slots() <= 0 || !sched.node_usable(id)) continue;
      if (kind == ResourceKind::kGpu && cluster.node(id).gpus().idle() == 0) continue;
      double score = -cluster.node(id).metrics().capability(kind) * 1000.0 +
                     static_cast<double>(exec.running_tasks());
      ready.push_back({score, id});
    }
    std::sort(ready.begin(), ready.end());
    return ready;
  };

  std::size_t launches = 0, redirected = 0, gpu_checks = 0;
  // Launches at one simulated instant: the first round places many.
  std::size_t in_round = 0, most_in_round = 0;
  SimTime last_launch = -1.0;
  sched.set_dispatch_interceptor(
      [&](StageId stage, TaskId, AttemptId, NodeId chosen) -> std::optional<NodeId> {
        ResourceKind kind = sched.stage_bottleneck(stage_names.at(stage));
        auto ready = ranked_ready(kind);
        EXPECT_FALSE(ready.empty());
        if (ready.empty()) return std::nullopt;
        EXPECT_EQ(chosen, ready.front().second)
            << "launch " << launches << " at t=" << sim.sim().now() << " kind "
            << to_string(kind);
        gpu_checks += kind == ResourceKind::kGpu;
        in_round = sim.sim().now() == last_launch ? in_round + 1 : 1;
        most_in_round = std::max(most_in_round, in_round);
        last_launch = sim.sim().now();
        if (++launches % 5 != 0 || ready.size() < 2) return std::nullopt;
        ++redirected;
        return ready.back().second;
      });
  EXPECT_GT(sim.run(app), 0.0);
  EXPECT_EQ(launches, sched.launches());
  EXPECT_GT(redirected, 0u);
  EXPECT_GT(gpu_checks, 0u) << "the run never placed a GPU-bound stage";
  EXPECT_GE(most_in_round, 5u) << "no round placed several tasks";
}

}  // namespace
}  // namespace rupam
