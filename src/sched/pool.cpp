#include "sched/pool.hpp"

#include <algorithm>

namespace rupam {

std::string_view to_string(PoolPolicy policy) {
  switch (policy) {
    case PoolPolicy::kFifo: return "FIFO";
    case PoolPolicy::kFair: return "FAIR";
  }
  return "?";
}

std::string_view pool_policy_name(PoolPolicy policy) {
  return policy == PoolPolicy::kFair ? "fair" : "fifo";
}

std::optional<PoolPolicy> pool_policy_from_name(std::string_view name) {
  for (PoolPolicy policy : {PoolPolicy::kFifo, PoolPolicy::kFair}) {
    if (pool_policy_name(policy) == name) return policy;
  }
  return std::nullopt;
}

const PoolSpec& PoolConfig::spec(const std::string& name) const {
  static const PoolSpec kDefault{};
  auto it = pools.find(name);
  return it == pools.end() ? kDefault : it->second;
}

namespace {

// Spark's FairSchedulingAlgorithm without the name tie-break: negative
// when a schedules first, positive when b does, 0 when the numeric inputs
// tie (caller falls through to its name / lex-rank tie-break).
int fair_compare(int a_running, double a_weight, int a_min_share,
                 int b_running, double b_weight, int b_min_share) {
  bool a_needy = a_running < a_min_share;
  bool b_needy = b_running < b_min_share;
  double a_min_ratio =
      static_cast<double>(a_running) / static_cast<double>(std::max(a_min_share, 1));
  double b_min_ratio =
      static_cast<double>(b_running) / static_cast<double>(std::max(b_min_share, 1));
  double a_weight_ratio = static_cast<double>(a_running) / std::max(a_weight, 1e-9);
  double b_weight_ratio = static_cast<double>(b_running) / std::max(b_weight, 1e-9);
  if (a_needy && !b_needy) return -1;
  if (!a_needy && b_needy) return 1;
  if (a_needy && b_needy) {
    if (a_min_ratio != b_min_ratio) return a_min_ratio < b_min_ratio ? -1 : 1;
  } else if (a_weight_ratio != b_weight_ratio) {
    return a_weight_ratio < b_weight_ratio ? -1 : 1;
  }
  return 0;
}

}  // namespace

bool fair_less(const PoolSnapshot& a, const PoolSnapshot& b) {
  int cmp = fair_compare(a.running, a.weight, a.min_share, b.running, b.weight, b.min_share);
  if (cmp != 0) return cmp < 0;
  return a.name < b.name;
}

bool fair_less(const PoolIdSnapshot& a, const PoolIdSnapshot& b) {
  int cmp = fair_compare(a.running, a.weight, a.min_share, b.running, b.weight, b.min_share);
  if (cmp != 0) return cmp < 0;
  return a.lex_rank < b.lex_rank;
}

std::vector<std::string> fair_order(std::vector<PoolSnapshot> pools) {
  std::sort(pools.begin(), pools.end(),
            [](const PoolSnapshot& a, const PoolSnapshot& b) { return fair_less(a, b); });
  std::vector<std::string> out;
  out.reserve(pools.size());
  for (const auto& p : pools) out.push_back(p.name);
  return out;
}

}  // namespace rupam
