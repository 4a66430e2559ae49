#include "sched/spark/spark_scheduler.hpp"

#include <algorithm>

namespace rupam {

namespace {

// spark.locality.wait: dwell time per locality level (a run constant,
// DESIGN.md §4).
constexpr SimTime kLocalityWait = 3.0;

}  // namespace

void SparkScheduler::index_task(StageState& stage, StageIdx& idx, std::size_t i) {
  const TaskSpec& spec = stage.tasks[i].spec;
  for (NodeId n : spec.preferred_nodes) idx.prefer[n].insert(i);
  if (!spec.input_cache_key.empty()) {
    idx.by_key[spec.input_cache_key].insert(i);
    if (const std::set<NodeId>* nodes = nodes_caching(spec.input_cache_key)) {
      for (NodeId n : *nodes) idx.cached[n].insert(i);
    }
  }
  bool widened = (!spec.input_cache_key.empty() && !idx.any_cached) ||
                 (!spec.preferred_nodes.empty() && !idx.any_preferred);
  idx.any_cached = idx.any_cached || !spec.input_cache_key.empty();
  idx.any_preferred = idx.any_preferred || !spec.preferred_nodes.empty();
  if (widened) idx.levels = locality_levels(idx.any_cached, idx.any_preferred);
}

void SparkScheduler::deindex_task(StageState& stage, StageIdx& idx, std::size_t i) {
  const TaskSpec& spec = stage.tasks[i].spec;
  for (NodeId n : spec.preferred_nodes) {
    auto it = idx.prefer.find(n);
    if (it == idx.prefer.end()) continue;
    it->second.erase(i);
    if (it->second.empty()) idx.prefer.erase(it);
  }
  if (spec.input_cache_key.empty()) return;
  auto kit = idx.by_key.find(spec.input_cache_key);
  if (kit != idx.by_key.end()) {
    kit->second.erase(i);
    if (kit->second.empty()) idx.by_key.erase(kit);
  }
  if (const std::set<NodeId>* nodes = nodes_caching(spec.input_cache_key)) {
    for (NodeId n : *nodes) {
      auto it = idx.cached.find(n);
      if (it == idx.cached.end()) continue;
      it->second.erase(i);
      if (it->second.empty()) idx.cached.erase(it);
    }
  }
}

void SparkScheduler::stage_submitted(StageState& stage) {
  StageIdx& idx = index_[stage.set.stage];
  for (std::size_t i = 0; i < stage.tasks.size(); ++i) index_task(stage, idx, i);
  idx.levels = locality_levels(idx.any_cached, idx.any_preferred);
}

void SparkScheduler::stage_removed(StageState& stage) { index_.erase(stage.set.stage); }

void SparkScheduler::task_pending_changed(StageState& stage, std::size_t index, bool pending) {
  auto it = index_.find(stage.set.stage);
  if (it == index_.end()) return;
  if (pending) {
    index_task(stage, it->second, index);
  } else {
    deindex_task(stage, it->second, index);
  }
}

void SparkScheduler::cache_block_changed(NodeId node, const std::string& key, bool present) {
  for (auto& [sid, idx] : index_) {
    auto kit = idx.by_key.find(key);
    if (kit == idx.by_key.end()) continue;
    if (present) {
      auto& bucket = idx.cached[node];
      for (std::size_t i : kit->second) bucket.insert(i);
    } else {
      auto cit = idx.cached.find(node);
      if (cit == idx.cached.end()) continue;
      for (std::size_t i : kit->second) cit->second.erase(i);
      if (cit->second.empty()) idx.cached.erase(cit);
    }
  }
}

std::size_t SparkScheduler::level_hops(const StageState& stage, SimTime now) {
  // Each level is granted kLocalityWait seconds since the last launch
  // before relaxing.
  SimTime reference = std::max(stage.submit_time, stage.last_launch);
  return static_cast<std::size_t>((now - reference) / kLocalityWait);
}

Locality SparkScheduler::allowed_level(const StageState& stage, const StageIdx& idx) const {
  // Walk the stage's achievable levels.
  std::size_t i = std::min(level_hops(stage, sim().now()), idx.levels.size() - 1);
  return idx.levels[i];
}

SimTime SparkScheduler::next_relaxation() const {
  // A stage still waiting below its last level relaxes at the first
  // instant its hop count grows; nothing else in a round moves with time.
  SimTime now = sim().now();
  SimTime next = Simulator::kForever;
  for (const auto& [sid, stage] : stages_) {
    if (stage.pending_index.empty()) continue;
    auto it = index_.find(sid);
    if (it == index_.end()) continue;
    std::size_t hops = level_hops(stage, now);
    if (hops + 1 >= it->second.levels.size()) continue;
    SimTime reference = std::max(stage.submit_time, stage.last_launch);
    next = std::min(next, first_instant(reference + static_cast<double>(hops + 1) * kLocalityWait,
                                        [&](SimTime t) { return level_hops(stage, t) > hops; }));
  }
  return next;
}

SparkScheduler::Candidate SparkScheduler::indexed_pick(StageState& stage, StageIdx& idx,
                                                       NodeId node, Locality allowed) {
  // Tier 1: tasks whose input block is cached on this node (PROCESS_LOCAL).
  auto cit = idx.cached.find(node);
  if (cit != idx.cached.end()) {
    for (std::size_t i : cit->second) {
      note_task_checks(1);
      TaskState& task = stage.tasks[i];
      if (launchable(task)) return Candidate{&stage, &task, Locality::kProcessLocal};
    }
  }
  // Tier 2: preferred-node tasks. Any launchable entry here that were also
  // cache-local would have been returned by tier 1, so these are exactly
  // NODE_LOCAL on this node.
  if (locality_at_least(Locality::kNodeLocal, allowed)) {
    auto pit = idx.prefer.find(node);
    if (pit != idx.prefer.end()) {
      for (std::size_t i : pit->second) {
        note_task_checks(1);
        TaskState& task = stage.tasks[i];
        if (launchable(task)) return Candidate{&stage, &task, Locality::kNodeLocal};
      }
    }
  }
  // Tier 3: any pending task. With tiers 1–2 drained, every launchable
  // task left is ANY on this node.
  if (allowed == Locality::kAny) {
    if (TaskState* task = next_launchable(stage)) {
      return Candidate{&stage, task, Locality::kAny};
    }
  }
  return Candidate{};
}

SparkScheduler::Candidate SparkScheduler::pick_task_for(
    NodeId node, const std::vector<StageState*>& ordered) {
  for (StageState* sp : ordered) {  // cross-job pool-policy order
    StageState& stage = *sp;
    auto it = index_.find(stage.set.stage);
    if (it == index_.end()) continue;
    Candidate c = indexed_pick(stage, it->second, node, allowed_level(stage, it->second));
    if (c.task != nullptr) return c;  // first taskset in policy order
  }
  return Candidate{};
}

void SparkScheduler::try_dispatch() {
  if (stages_.empty()) return;
  std::size_t n = cluster().size();
  // Nothing waits for a slot: an offer pass would visit every ready node
  // and launch nothing, so skip it.
  bool progressed = pending_tasks() > 0;
  while (progressed) {
    progressed = false;
    // Re-rank tasksets each offer round: under FAIR the launches of the
    // previous round shift every pool's share.
    const std::vector<StageState*>& ordered = schedulable_stages();
    // Rotate the starting node between rounds: Spark shuffles offers so
    // one node does not soak up every wave.
    NodeId start = static_cast<NodeId>(offer_rotation_ % n);
    for_each_ready_node(start, [&](NodeId node, Executor&) {
      Candidate c = pick_task_for(node, ordered);
      if (c.task == nullptr) return true;
      if (audit_enabled()) {
        // The delay-scheduling story: which level the stage was allowed to
        // relax to vs. the level actually taken on this offer.
        Locality allowed = allowed_level(*c.stage, index_.at(c.stage->set.stage));
        Explain e;
        e.reason = "spark_delay_scheduling";
        e.detail = "allowed=" + std::string(to_string(allowed)) +
                   " taken=" + std::string(to_string(c.locality));
        std::vector<NodeId> offers;
        for (NodeId cand : cluster().node_ids()) {
          Executor* ne = executor(cand);
          if (ne != nullptr && ne->free_slots() > 0 && node_usable(cand)) {
            offers.push_back(cand);
          }
        }
        e.candidates = static_cast<int>(offers.size());
        e.candidate_nodes = std::move(offers);
        explain_next_launch(std::move(e));
      }
      // Spark tries the GPU path whenever the application's library would
      // (it has no device awareness; contention falls back to CPU inside
      // the executor).
      if (launch_task(*c.stage, *c.task, node, c.task->spec.gpu_accelerable,
                      /*speculative=*/false)) {
        progressed = true;
      }
      return true;
    });
    ++offer_rotation_;
  }
  if (launch_speculative_copies()) {
    // A speculative launch can free no slot, so no re-loop is needed.
  }
}

bool SparkScheduler::launch_speculative_copies() {
  bool launched = false;
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    for_each_ready_node(0, [&](NodeId node, Executor&) {
      if (task.has_attempt_on(node)) return true;  // copy must land elsewhere
      if (audit_enabled()) {
        Explain e;
        e.reason = "spark_speculative";
        e.detail = "straggler copy off node " + std::to_string(task.live.empty()
                                                                   ? kInvalidNode
                                                                   : task.live.front().node);
        e.candidates = 1;
        e.candidate_nodes = {node};
        explain_next_launch(std::move(e));
      }
      if (launch_task(stage, task, node, task.spec.gpu_accelerable, /*speculative=*/true)) {
        note_speculative_launch(task.spec.id);
        launched = true;
        return false;
      }
      return true;
    });
  }
  return launched;
}

}  // namespace rupam
