#include "sched/rupam/task_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace rupam {

namespace {

// Tasks whose recorded peak memory exceeds this also join the MEM queue
// (extension of Algorithm 1's 4-way split to the paper's 5 resource
// queues).
constexpr Bytes kMemQueueThreshold = 1.0 * kGiB;

}  // namespace

TaskManager::TaskManager(TaskCharDb& db, double res_factor) : db_(db), res_factor_(res_factor) {
  if (res_factor_ <= 0.0) throw std::invalid_argument("TaskManager: res_factor <= 0");
}

ResourceKind TaskManager::bottleneck(SimTime compute_time, SimTime shuffle_read,
                                     SimTime shuffle_write, bool gpu) const {
  // Algorithm 1, line for line.
  if (gpu) return ResourceKind::kGpu;
  if (compute_time > res_factor_ * std::max(shuffle_read, shuffle_write)) {
    return ResourceKind::kCpu;
  }
  if (shuffle_read > res_factor_ * shuffle_write) return ResourceKind::kNetwork;
  return ResourceKind::kDisk;
}

ResourceKind TaskManager::bottleneck(const TaskCharRecord& rec) const {
  return bottleneck(rec.compute_time, rec.shuffle_read, rec.shuffle_write, rec.gpu);
}

ResourceKind TaskManager::bottleneck(const TaskMetrics& metrics, bool gpu) const {
  return bottleneck(metrics.compute_time, metrics.shuffle_read_time,
                    metrics.shuffle_write_time, gpu || metrics.used_gpu);
}

std::vector<ResourceKind> TaskManager::classify(const TaskSpec& spec) const {
  std::vector<ResourceKind> kinds;
  const TaskCharRecord* rec = db_.lookup(spec.stage_name, spec.partition);
  bool stage_gpu = db_.stage_uses_gpu(spec.stage_name) || spec.gpu_accelerable;
  if (rec != nullptr) {
    kinds.push_back(bottleneck(rec->compute_time, rec->shuffle_read, rec->shuffle_write,
                               rec->gpu || stage_gpu));
    if (rec->peak_memory > kMemQueueThreshold) {
      kinds.push_back(ResourceKind::kMemory);
    }
    return kinds;
  }
  if (stage_gpu) {
    kinds.push_back(ResourceKind::kGpu);
    return kinds;
  }
  if (spec.is_shuffle_map) {
    // First sighting of a map task: "bounded by all types of resources".
    kinds = {ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDisk,
             ResourceKind::kNetwork};
    return kinds;
  }
  // First sighting of a reduce/result task: network bound (shuffle fetch +
  // result send), relaxed by TM in later iterations once metrics exist.
  kinds.push_back(ResourceKind::kNetwork);
  return kinds;
}

void TaskManager::enqueue(const TaskSpec& spec, StageId stage, std::size_t task_index) {
  ++version_;
  std::vector<Slot>& slots = slots_[{stage, task_index}];
  StageNameId name = db_.intern_stage(spec.stage_name);
  for (ResourceKind kind : classify(spec)) {
    std::uint64_t seq = next_seq_++;
    active_[static_cast<std::size_t>(kind)].emplace(
        seq, PendingRef{stage, task_index, spec.id, name});
    slots.push_back(Slot{kind, seq});
  }
}

void TaskManager::note_launched(StageId stage, std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return;
  for (const Slot& slot : it->second) {
    Queue& from = active_[static_cast<std::size_t>(slot.kind)];
    auto node = from.extract(slot.seq);
    if (!node.empty()) parked_[static_cast<std::size_t>(slot.kind)].insert(std::move(node));
  }
}

void TaskManager::note_pending_again(StageId stage, std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return;
  ++version_;
  for (const Slot& slot : it->second) {
    Queue& from = parked_[static_cast<std::size_t>(slot.kind)];
    auto node = from.extract(slot.seq);
    // Re-inserting under the original seq restores the queue position.
    if (!node.empty()) active_[static_cast<std::size_t>(slot.kind)].insert(std::move(node));
  }
}

void TaskManager::note_finished(StageId stage, std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return;
  ++version_;
  for (const Slot& slot : it->second) {
    active_[static_cast<std::size_t>(slot.kind)].erase(slot.seq);
    parked_[static_cast<std::size_t>(slot.kind)].erase(slot.seq);
  }
  slots_.erase(it);
}

const TaskManager::Queue& TaskManager::active(ResourceKind kind) const {
  return active_[static_cast<std::size_t>(kind)];
}

const TaskManager::Queue& TaskManager::parked(ResourceKind kind) const {
  return parked_[static_cast<std::size_t>(kind)];
}

void TaskManager::clear_queues() {
  for (auto& q : active_) q.clear();
  for (auto& q : parked_) q.clear();
  slots_.clear();
  next_seq_ = 0;
  ++version_;
}

void TaskManager::record_completion(const TaskSpec& spec, const TaskMetrics& metrics) {
  ResourceKind kind = bottleneck(metrics, spec.gpu_accelerable && metrics.used_gpu);
  db_.update(spec.stage_name, spec.partition, metrics, kind);
  if (metrics.used_gpu) db_.mark_stage_gpu(spec.stage_name);
}

}  // namespace rupam
