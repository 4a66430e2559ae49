#include "sched/rupam/resource_monitor.hpp"

#include <algorithm>

namespace rupam {

void ResourceMonitor::record(const NodeMetrics& metrics) { latest_[metrics.node] = metrics; }

const NodeMetrics* ResourceMonitor::latest(NodeId node) const {
  auto it = latest_.find(node);
  return it == latest_.end() ? nullptr : &it->second;
}

void ResourceMonitor::order_into(ResourceKind kind, std::vector<RankKey>& keys,
                                 std::vector<NodeId>& out) const {
  keys.clear();
  for (const auto& [id, m] : latest_) {
    keys.push_back(RankKey{m.capability(kind), m.utilization(kind), id});
  }
  // Most capable first, then least utilized, then the lower id.
  std::sort(keys.begin(), keys.end(), [](const RankKey& a, const RankKey& b) {
    if (a.capability != b.capability) return a.capability > b.capability;
    if (a.utilization != b.utilization) return a.utilization < b.utilization;
    return a.node < b.node;
  });
  out.clear();
  for (const RankKey& key : keys) out.push_back(key.node);
}

}  // namespace rupam
