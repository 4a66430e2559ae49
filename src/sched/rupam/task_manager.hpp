// RUPAM's Task Manager (TM, paper §III-B2 + Algorithm 1).
//
// Characterizes tasks into per-resource pending queues:
//  * known tasks (present in DB_task_char) are classified by Algorithm 1
//    over their recorded metrics;
//  * first-time map tasks are assumed bounded by every resource
//    (enqueued in all queues);
//  * first-time reduce/result tasks are assumed network-bound.
//
// Queues are kept incrementally instead of rebuilt per dispatch: each
// queue splits into an *active* half (refs whose task is waiting) and a
// *parked* half (refs whose task is running — kept because the attempt
// may fail, and because the GPU queue races parked refs). Refs move
// between halves on launch/failure under their original sequence number,
// so restored refs keep their queue position. Row collection per
// kind-visit is therefore O(active of that kind), not O(all unfinished
// tasks).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "tasks/task.hpp"

namespace rupam {

class TaskManager {
 public:
  struct PendingRef {
    StageId stage = 0;
    std::size_t task_index = 0;
    TaskId task = 0;
    /// Interned stage name (assigned at enqueue) — lets the dispatch path
    /// hit DB_task_char without re-hashing the stage-name string.
    StageNameId name;
  };
  /// Sequence number → ref, ordered by enqueue time. A task re-enqueued
  /// after a failure legitimately holds several refs per queue (the old
  /// restored ones plus the re-characterized ones), matching the paper's
  /// "characterize again on retry" behaviour.
  using Queue = std::map<std::uint64_t, PendingRef>;

  /// `res_factor` is Algorithm 1's Res_factor: the sensitivity of
  /// bottleneck classification.
  explicit TaskManager(TaskCharDb& db, double res_factor = 2.0);

  /// Algorithm 1 over recorded/observed characteristics.
  ResourceKind bottleneck(SimTime compute_time, SimTime shuffle_read, SimTime shuffle_write,
                          bool gpu) const;
  ResourceKind bottleneck(const TaskCharRecord& rec) const;
  ResourceKind bottleneck(const TaskMetrics& metrics, bool gpu) const;

  /// Which queues a (re)submitted task belongs to.
  std::vector<ResourceKind> classify(const TaskSpec& spec) const;

  /// Enqueue into the active half of all queues classify() names.
  void enqueue(const TaskSpec& spec, StageId stage, std::size_t task_index);

  /// The task at (stage, task_index) started running: park its refs.
  void note_launched(StageId stage, std::size_t task_index);
  /// The task went back to pending (attempt failed / was relocated):
  /// restore its parked refs at their original queue positions.
  void note_pending_again(StageId stage, std::size_t task_index);
  /// The task finished: drop every ref it holds.
  void note_finished(StageId stage, std::size_t task_index);

  const Queue& active(ResourceKind kind) const;
  const Queue& parked(ResourceKind kind) const;
  void clear_queues();
  /// Bumped by every queue change except note_launched. Parking keeps a
  /// ref's sequence number, so a dispatch round's row snapshot stays valid
  /// across its own launches and is rebuilt when this moves.
  std::uint64_t version() const { return version_; }

  /// Fold a completed attempt into DB_task_char; marks the stage GPU when
  /// a device was used (the paper tags all tasks of that stage).
  void record_completion(const TaskSpec& spec, const TaskMetrics& metrics);

  TaskCharDb& db() { return db_; }

 private:
  struct Slot {
    ResourceKind kind;
    std::uint64_t seq;
  };

  TaskCharDb& db_;
  double res_factor_;
  std::array<Queue, kNumResourceKinds> active_;
  std::array<Queue, kNumResourceKinds> parked_;
  /// (stage, task_index) → every ref the task holds across queues.
  std::map<std::pair<StageId, std::size_t>, std::vector<Slot>> slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace rupam
