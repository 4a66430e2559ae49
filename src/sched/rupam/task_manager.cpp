#include "sched/rupam/task_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace rupam {

namespace {

// Tasks whose recorded peak memory exceeds this also join the MEM queue
// (extension of Algorithm 1's 4-way split to the paper's 5 resource
// queues).
constexpr Bytes kMemQueueThreshold = 1.0 * kGiB;
// A queue is compacted once its removed rows outnumber the rest and this.
constexpr std::size_t kCompactAfter = 64;

}  // namespace

TaskManager::TaskManager(TaskCharDb& db, double res_factor, bool gpu_race,
                         const DispatcherPolicy& policy)
    : db_(db), res_factor_(res_factor), gpu_race_(gpu_race) {
  if (res_factor_ <= 0.0) throw std::invalid_argument("TaskManager: res_factor <= 0");
  for (QueueRowIndex& queue : queues_) queue.clear(policy);
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

TaskManager::Kinds TaskManager::classify(const TaskSpec& spec) const {
  StageNameId name = db_.find_stage(spec.stage_name);
  return classify(spec, name, db_.lookup(name, spec.partition));
}

TaskManager::Kinds TaskManager::classify(const TaskSpec& spec, StageNameId name,
                                         const TaskCharRecord* rec) const {
  Kinds kinds;
  bool stage_gpu = db_.stage_uses_gpu(name) || spec.gpu_accelerable;
  if (rec != nullptr) {
    kinds.push_back(bottleneck(rec->compute_time, rec->shuffle_read, rec->shuffle_write,
                               rec->gpu || stage_gpu));
    if (rec->peak_memory > kMemQueueThreshold) kinds.push_back(ResourceKind::kMemory);
    return kinds;
  }
  if (stage_gpu) {
    kinds.push_back(ResourceKind::kGpu);
    return kinds;
  }
  if (spec.is_shuffle_map) {
    // First sighting of a map task: "bounded by all types of resources".
    for (ResourceKind kind : {ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDisk,
                              ResourceKind::kNetwork}) {
      kinds.push_back(kind);
    }
    return kinds;
  }
  // First sighting of a reduce/result task: network bound (shuffle fetch +
  // result send), relaxed by TM in later iterations once metrics exist.
  kinds.push_back(ResourceKind::kNetwork);
  return kinds;
}

std::uint32_t TaskManager::open_stage(StageId stage, std::string_view name, std::uint32_t pool) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(stages_.size());
    stages_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  StageEntry& entry = stages_[slot];
  entry.open = true;
  entry.id = stage;
  entry.name = db_.intern_stage(name);
  entry.pool = pool;
  entry.tasks.clear();
  entry.by_partition.clear();
  slots_[stage] = slot;
  if (slots_by_name_.size() <= entry.name.index()) slots_by_name_.resize(entry.name.index() + 1);
  slots_by_name_[entry.name.index()].push_back(slot);
  return slot;
}

void TaskManager::close_stage(StageId stage) {
  auto it = slots_.find(stage);
  if (it == slots_.end()) return;
  std::uint32_t slot = it->second;
  slots_.erase(it);
  StageEntry& entry = stages_[slot];
  entry.open = false;
  std::erase(slots_by_name_[entry.name.index()], slot);
  free_slots_.push_back(slot);
}

bool TaskManager::holds(TaskRef task, TaskId id) const {
  if (task.slot >= stages_.size() || !stages_[task.slot].open) return false;
  const StageEntry& stage = stages_[task.slot];
  return task.index < stage.tasks.size() && stage.tasks[task.index].registered &&
         stage.tasks[task.index].id == id;
}

void TaskManager::register_task(const TaskSpec& spec, TaskRef task) {
  StageEntry& stage = stages_[task.slot];
  TaskEntry& e = stage.tasks[task.index];
  e.registered = true;
  e.id = spec.id;
  e.partition = spec.partition;
  auto partition = static_cast<std::size_t>(spec.partition);
  if (stage.by_partition.size() <= partition) stage.by_partition.resize(partition + 1, kNoRow);
  stage.by_partition[partition] = task.index;
  if (spec.input_cache_key.empty()) return;
  SymbolId<InputKeyTag> key = input_keys_.intern(spec.input_cache_key);
  if (readers_.size() <= key.index()) readers_.resize(key.index() + 1);
  std::vector<Reader>& readers = readers_[key.index()];
  std::erase_if(readers, [&](const Reader& r) { return !holds(r.task, r.id); });
  readers.push_back(Reader{task, spec.id});
}

TaskManager::KindMask TaskManager::enqueue(const TaskSpec& spec, TaskRef task) {
  StageEntry& stage = stages_[task.slot];
  if (stage.tasks.size() <= task.index) stage.tasks.resize(task.index + 1);  // a graft
  if (!stage.tasks[task.index].registered) register_task(spec, task);
  TaskEntry& e = stage.tasks[task.index];
  e.rec = db_.lookup(stage.name, spec.partition);
  std::uint64_t handle = (static_cast<std::uint64_t>(task.slot) << 32) | task.index;
  KindMask added = 0;
  for (ResourceKind kind : classify(spec, stage.name, e.rec)) {
    auto k = static_cast<std::size_t>(kind);
    if (e.row[k] != kNoRow) continue;  // queued there already, further ahead
    e.row[k] = queues_[k].add(QueueRowIndex::Row{
        stage.pool, spec.total_memory(), e.rec != nullptr ? e.rec->opt_executor : kInvalidNode,
        e.rec != nullptr && e.rec->gpu, handle});
    added |= 1u << k;
    if (!e.running) {
      ++pending_rows_[k];
      continue;
    }
    ++running_rows_[k];
    if (!(gpu_race_ && kind == ResourceKind::kGpu)) queues_[k].park(e.row[k]);
  }
  return added;
}

void TaskManager::note_launched(TaskRef task) {
  TaskEntry& e = entry(task);
  if (e.running) return;
  e.running = true;
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (e.row[k] == kNoRow) continue;
    --pending_rows_[k];
    ++running_rows_[k];
    // A GPU row under racing stays: a freed device may poach the task.
    if (!(gpu_race_ && static_cast<ResourceKind>(k) == ResourceKind::kGpu)) {
      queues_[k].park(e.row[k]);
    }
  }
}

TaskManager::KindMask TaskManager::note_pending_again(TaskRef task) {
  StageEntry& stage = stages_[task.slot];
  if (task.index >= stage.tasks.size()) return 0;  // a graft, not queued yet
  TaskEntry& e = stage.tasks[task.index];
  if (!e.running) return 0;
  e.running = false;
  KindMask restored = 0;
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (e.row[k] == kNoRow) continue;
    --running_rows_[k];
    ++pending_rows_[k];
    if (queues_[k].in(e.row[k])) continue;
    queues_[k].restore(e.row[k]);
    restored |= 1u << k;
  }
  return restored;
}

void TaskManager::note_finished(TaskRef task) {
  TaskEntry& e = entry(task);
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (e.row[k] == kNoRow) continue;
    --(e.running ? running_rows_ : pending_rows_)[k];
    QueueRowIndex& queue = queues_[k];
    queue.remove(e.row[k]);
    e.row[k] = kNoRow;
    if (queue.removed() > kCompactAfter && 2 * queue.removed() > queue.size()) {
      queue.compact([&](std::uint32_t row) { entry(task_of(static_cast<ResourceKind>(k), row)).row[k] = row; });
    }
  }
  e.running = false;
}

void TaskManager::link_task(TaskRef task, NodeId node, KindMask kinds) {
  const TaskEntry& e = entry(task);
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (e.row[k] != kNoRow && (kinds & (1u << k)) != 0) queues_[k].link(node, e.row[k]);
  }
}

void TaskManager::relink_task(TaskRef task) {
  const TaskEntry& e = entry(task);
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (e.row[k] != kNoRow && queues_[k].in(e.row[k])) queues_[k].relink(e.row[k]);
  }
}

void TaskManager::record_completion(const TaskSpec& spec, const TaskMetrics& metrics) {
  ResourceKind kind = bottleneck(metrics, spec.gpu_accelerable && metrics.used_gpu);
  const TaskCharRecord& rec = db_.update(spec.stage_name, spec.partition, metrics, kind);
  if (metrics.used_gpu) db_.mark_stage_gpu(spec.stage_name);
  // Queued tasks with this key (other stages of the same name) lock anew.
  StageNameId name = db_.find_stage(spec.stage_name);
  if (name.index() >= slots_by_name_.size()) return;
  auto partition = static_cast<std::size_t>(spec.partition);
  for (std::uint32_t slot : slots_by_name_[name.index()]) {
    StageEntry& stage = stages_[slot];
    if (partition >= stage.by_partition.size() || stage.by_partition[partition] == kNoRow) {
      continue;
    }
    TaskEntry& e = stage.tasks[stage.by_partition[partition]];
    e.rec = &rec;
    for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
      if (e.row[k] != kNoRow) queues_[k].set_lock(e.row[k], rec.opt_executor, rec.gpu);
    }
  }
}

}  // namespace rupam
