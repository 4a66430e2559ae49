// Cross-job scheduling pools: Spark's FIFO and FAIR TaskSet-ordering
// policies (spark.scheduler.mode, fairscheduler.xml pools).
//
// A pool groups the TaskSets of one tenant (or job class). Under FIFO the
// scheduler drains tasksets in (job, stage) submission order; under FAIR
// each pool is ranked every dispatch round by Spark's fair-sharing rule
// over its currently running tasks (minShare first, then min-share ratio,
// then running/weight), and tasksets inside a pool stay FIFO. The ranking
// itself is pure logic so the unit tests can exercise weights, minShare
// and tie-breaks without a cluster.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/symbol.hpp"

namespace rupam {

enum class PoolPolicy {
  kFifo = 0,  // Spark's default: strict (job, stage) submission order
  kFair,      // weighted fair sharing across pools, FIFO within a pool
};

std::string_view to_string(PoolPolicy policy);
/// The lower-case CLI/JSON name and its inverse; to_string() is the
/// display form.
std::string_view pool_policy_name(PoolPolicy policy);
std::optional<PoolPolicy> pool_policy_from_name(std::string_view name);

/// One pool's fair-share parameters (fairscheduler.xml <pool> entry).
struct PoolSpec {
  double weight = 1.0;
  int min_share = 0;  // cores the pool is owed before fair sharing kicks in
};

/// Cross-job scheduling configuration handed to SchedulerBase. Pools not
/// present in `pools` use the default PoolSpec (weight 1, no min share) —
/// exactly how Spark treats pools that fairscheduler.xml does not name.
struct PoolConfig {
  PoolPolicy policy = PoolPolicy::kFifo;
  std::map<std::string, PoolSpec> pools;

  const PoolSpec& spec(const std::string& name) const;
};

/// A pool's live state at one dispatch round — the inputs of Spark's
/// FairSchedulingAlgorithm.comparator.
struct PoolSnapshot {
  std::string name;
  int running = 0;  // tasks of this pool currently occupying cores
  double weight = 1.0;
  int min_share = 0;
};

/// Spark's FairSchedulingAlgorithm: pools below their minShare come first
/// (ordered by runningTasks/minShare), then the rest by runningTasks/weight;
/// final tie-break is the pool name, which keeps the order deterministic.
bool fair_less(const PoolSnapshot& a, const PoolSnapshot& b);

/// Pool names in fair-schedule order (most-starved first).
std::vector<std::string> fair_order(std::vector<PoolSnapshot> pools);

/// Allocation-free counterpart of PoolSnapshot for the hot dispatch path:
/// the pool is an interned PoolId, and the name tie-break is carried as a
/// precomputed lexicographic rank (see SchedulerBase::pool_lex_rank_) so
/// comparing two snapshots never touches the strings.
struct PoolIdSnapshot {
  PoolId id;
  std::uint32_t lex_rank = 0;  // rank of the pool name in lexicographic order
  int running = 0;
  double weight = 1.0;
  int min_share = 0;
};

/// fair_less over interned snapshots. Identical ordering to the string
/// overload as long as lex_rank reflects lexicographic name order.
bool fair_less(const PoolIdSnapshot& a, const PoolIdSnapshot& b);

/// Name under which a taskset with no explicit pool is scheduled.
inline constexpr const char* kDefaultPool = "default";

}  // namespace rupam
