// RUPAM's Task Manager (TM, paper §III-B2 + Algorithm 1).
//
// Characterizes tasks into per-resource pending queues:
//  * known tasks (present in DB_task_char) are classified by Algorithm 1
//    over their recorded metrics;
//  * first-time map tasks are assumed bounded by every resource
//    (enqueued in all queues);
//  * first-time reduce/result tasks are assumed network-bound.
//
// The queues are the QueueRowIndex the Dispatcher reads (Algorithm 2),
// kept across dispatch rounds and touched only where something changed:
//  * an enqueue appends the task's rows in sequence order;
//  * a launch parks them (out of the index; a pool's head may pass them),
//    except GPU rows under racing, which a freed device may still poach;
//  * pending again restores them at their positions, so the pool heads
//    drop back over them;
//  * a finish removes them, and a queue whose removed rows outnumber the
//    rest is compacted;
//  * a DB_task_char update re-reads the lock of every queued task with
//    that (stage name, partition) key.
// A task holds at most one row per queue: re-enqueued after a failure
// ("characterize again on retry") it keeps the rows it holds, at their
// old positions, and gains rows only in queues it is new to. A second row
// of the same task behind the first could never win over it. The caller
// links rows to the nodes where they run better than ANY (link_task),
// since it owns the block locations. Tasks are addressed by stage slot
// plus index, never by pointer: a resubmission can graft tasks into a
// stage and move its task vector.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/symbol.hpp"
#include "common/units.hpp"
#include "sched/rupam/dispatcher.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "tasks/task.hpp"

namespace rupam {

class TaskManager {
 public:
  /// Queue memberships from Algorithm 1, in its order: at most four (a
  /// first-time map task joins CPU, MEM, DISK and NET).
  class Kinds {
   public:
    void push_back(ResourceKind kind) { kinds_[size_++] = kind; }
    std::size_t size() const { return size_; }
    ResourceKind operator[](std::size_t i) const { return kinds_[i]; }
    const ResourceKind* begin() const { return kinds_.data(); }
    const ResourceKind* end() const { return kinds_.data() + size_; }

   private:
    std::array<ResourceKind, 4> kinds_{};
    std::size_t size_ = 0;
  };
  /// A queued task: its stage's slot (open_stage) and its index there.
  struct TaskRef {
    std::uint32_t slot = 0;
    std::uint32_t index = 0;
  };

  /// `res_factor` is Algorithm 1's Res_factor: the sensitivity of
  /// bottleneck classification. `gpu_race` keeps a launched task's GPU row
  /// in its queue; `policy` decides whether rows link to their locks.
  explicit TaskManager(TaskCharDb& db, double res_factor = 2.0, bool gpu_race = false,
                       const DispatcherPolicy& policy = {});

  /// Algorithm 1 over recorded/observed characteristics.
  ResourceKind bottleneck(SimTime compute_time, SimTime shuffle_read, SimTime shuffle_write,
                          bool gpu) const;
  ResourceKind bottleneck(const TaskCharRecord& rec) const;
  ResourceKind bottleneck(const TaskMetrics& metrics, bool gpu) const;

  /// Which queues a (re)submitted task belongs to.
  Kinds classify(const TaskSpec& spec) const;

  /// A stage's tasks are about to be enqueued; its rows join dense pool
  /// `pool`. Returns its slot, which stays the stage's until close_stage.
  std::uint32_t open_stage(StageId stage, std::string_view name, std::uint32_t pool);
  /// The stage drained (every task finished): its slot is free again.
  void close_stage(StageId stage);
  /// Slot of an open stage.
  std::uint32_t slot(StageId stage) const { return slots_.at(stage); }

  /// Bit `1 << kind` per queue: which of a task's rows an update touched.
  using KindMask = std::uint32_t;
  static constexpr KindMask kAllKinds = (1u << kNumResourceKinds) - 1;

  /// Rows for `task` in each queue classify() names that it holds no row
  /// in yet, appended in queue order. Returns the queues it joined.
  KindMask enqueue(const TaskSpec& spec, TaskRef task);
  /// The task started running: park its rows.
  void note_launched(TaskRef task);
  /// The task went back to pending (attempt failed / was relocated):
  /// restore its rows at their queue positions. Returns the queues whose
  /// rows came back (a GPU row under racing never left).
  KindMask note_pending_again(TaskRef task);
  /// The task finished: remove every row it holds.
  void note_finished(TaskRef task);
  /// Link the task's in rows of `kinds` to `node` (its input is stored or
  /// cached there); after enqueue and note_pending_again the caller links
  /// each such node.
  void link_task(TaskRef task, NodeId node, KindMask kinds = kAllKinds);
  /// Drop every link of the task's in rows except their locks (a block it
  /// reads left a node); the caller links its nodes again.
  void relink_task(TaskRef task);
  /// The queued tasks whose input is cached block `key`.
  template <class Visit>
  void for_each_reader(std::string_view key, Visit&& visit);

  /// Fold a completed attempt into DB_task_char; marks the stage GPU when
  /// a device was used (the paper tags all tasks of that stage). Queued
  /// tasks with the same key re-read their lock.
  void record_completion(const TaskSpec& spec, const TaskMetrics& metrics);

  QueueRowIndex& queue(ResourceKind kind) { return queues_[static_cast<std::size_t>(kind)]; }
  TaskRef task_of(ResourceKind kind, std::uint32_t row) const {
    std::uint64_t handle = queues_[static_cast<std::size_t>(kind)].row(row).handle;
    return TaskRef{static_cast<std::uint32_t>(handle >> 32), static_cast<std::uint32_t>(handle)};
  }
  /// The DB_task_char record of a queued task (null while it has none).
  const TaskCharRecord* record(TaskRef task) const { return entry(task).rec; }
  /// Rows of `kind` whose task waits for a launch / is running.
  std::size_t pending_rows(ResourceKind kind) const {
    return pending_rows_[static_cast<std::size_t>(kind)];
  }
  std::size_t running_rows(ResourceKind kind) const {
    return running_rows_[static_cast<std::size_t>(kind)];
  }

 private:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  struct TaskEntry {
    bool registered = false;
    bool running = false;
    TaskId id = 0;
    int partition = 0;
    /// Row per queue; kNoRow where it holds none.
    std::array<std::uint32_t, kNumResourceKinds> row;
    const TaskCharRecord* rec = nullptr;
    TaskEntry() { row.fill(kNoRow); }
  };
  struct StageEntry {
    bool open = false;
    StageId id = 0;
    StageNameId name;
    std::uint32_t pool = 0;
    std::vector<TaskEntry> tasks;  // by task index
    /// Partition -> task index (kNoRow: none), for DB key lookups.
    std::vector<std::uint32_t> by_partition;
  };
  struct Reader {
    TaskRef task;
    TaskId id = 0;
  };
  struct InputKeyTag;

  Kinds classify(const TaskSpec& spec, StageNameId name, const TaskCharRecord* rec) const;
  TaskEntry& entry(TaskRef task) { return stages_[task.slot].tasks[task.index]; }
  const TaskEntry& entry(TaskRef task) const { return stages_[task.slot].tasks[task.index]; }
  /// A reader or DB-key hit still names this task (its slot may have been
  /// reused since).
  bool holds(TaskRef task, TaskId id) const;
  void register_task(const TaskSpec& spec, TaskRef task);

  TaskCharDb& db_;
  double res_factor_;
  bool gpu_race_;
  std::array<QueueRowIndex, kNumResourceKinds> queues_;
  std::array<std::size_t, kNumResourceKinds> pending_rows_{};
  std::array<std::size_t, kNumResourceKinds> running_rows_{};
  std::vector<StageEntry> stages_;  // by slot
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<StageId, std::uint32_t> slots_;
  /// StageNameId -> open slots of stages with that name.
  std::vector<std::vector<std::uint32_t>> slots_by_name_;
  /// Interned input cache keys -> the tasks reading them.
  TypedSymbolTable<InputKeyTag> input_keys_;
  std::vector<std::vector<Reader>> readers_;
};

template <class Visit>
void TaskManager::for_each_reader(std::string_view key, Visit&& visit) {
  SymbolId<InputKeyTag> id = input_keys_.find(key);
  if (!id.valid()) return;
  std::vector<Reader>& readers = readers_[id.index()];
  // Readers of closed or reused slots are dropped as they are met.
  std::erase_if(readers, [&](const Reader& r) { return !holds(r.task, r.id); });
  for (const Reader& r : readers) visit(r.task);
}

}  // namespace rupam
