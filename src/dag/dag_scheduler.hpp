// DAGScheduler: tracks the stage DAGs of every application in flight.
//
// Within one application, jobs run strictly sequentially (a driver program
// blocks on each action), but any number of applications can be submitted
// concurrently via submit_app() — the multi-tenant regime. Each in-flight
// job keeps its own stage-progress map and shuffle-recovery state; all jobs
// share one MapOutputTracker keyed by (job, stage). Within a job, every
// stage whose parents have completed is submitted — independent stages run
// concurrently, which is what lets RUPAM overlap tasks with different
// resource demands (paper §III-C2).
//
// Recovery: completed shuffle-map partitions register their output
// location in the MapOutputTracker. When a node crashes, every map output
// it held is invalidated and — if a child stage still needs them — the
// parent stage's lost partitions are resubmitted for recomputation, for
// whichever concurrent jobs depended on that node (Spark's FetchFailed →
// parent-stage retry path, applied eagerly on node loss).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dag/job.hpp"
#include "dag/map_output_tracker.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

class DagScheduler {
 public:
  using SubmitFn = std::function<void(const TaskSet&)>;
  using DoneFn = std::function<void()>;

  /// Lifecycle record of one finished job (feeds JCT accounting).
  struct JobStats {
    JobId job = -1;
    std::string name;
    std::string app;
    std::string pool;
    SimTime submitted = 0.0;  // when the driver issued the action
    SimTime finished = 0.0;
  };
  using JobObserverFn = std::function<void(const JobStats&)>;

  DagScheduler(Simulator& sim, SubmitFn submit);

  /// Optional separate path for lost-partition recomputation (wired to
  /// SchedulerBase::resubmit, which revives tasks inside a still-active
  /// stage). Falls back to the submit function when unset.
  void set_resubmit(SubmitFn resubmit) { resubmit_ = std::move(resubmit); }

  /// Fires once per completed job with its lifecycle record.
  void set_job_observer(JobObserverFn fn) { job_observer_ = std::move(fn); }

  /// Single-application entry point: start executing `app`; `on_done`
  /// fires when its last job completes. Throws if anything is already
  /// running — use submit_app for concurrent applications.
  void run(const Application& app, DoneFn on_done);

  /// Multi-tenant entry point: start `app` now, alongside whatever else is
  /// in flight. Its jobs still run sequentially relative to each other.
  /// The application's stage/task ids must be disjoint from every active
  /// application's (see offset_ids); collisions throw.
  void submit_app(const Application& app, DoneFn on_done = nullptr);

  /// The task scheduler reports each partition's first successful attempt;
  /// `node` (when valid) registers a shuffle-map output location.
  void on_partition_success(StageId stage, int partition, NodeId node = kInvalidNode);

  /// Node crash: invalidate its map outputs and resubmit the lost
  /// partitions of any stage a still-incomplete child depends on — across
  /// every job in flight. Returns the number of partitions resubmitted.
  std::size_t on_node_lost(NodeId node);

  /// No application in flight.
  bool finished() const { return apps_.empty(); }
  /// Jobs currently executing (one per in-flight application).
  std::size_t active_jobs() const;
  /// Ids of the jobs currently executing, ascending.
  std::vector<JobId> active_job_ids() const;
  /// Jobs completed since construction, across all applications.
  std::size_t jobs_completed() const { return jobs_completed_; }
  /// Applications completed since construction.
  std::size_t apps_completed() const { return apps_completed_; }
  /// Stages handed to the task scheduler since construction (a lost-output
  /// resubmission is not a new submission).
  std::size_t stages_submitted() const { return stages_submitted_; }
  /// Stage completions since construction (a stage that recomputes lost
  /// map outputs completes again).
  std::size_t stages_completed() const { return stages_completed_; }

  const MapOutputTracker& map_outputs() const { return outputs_; }
  /// Total partitions resubmitted due to lost map outputs.
  std::size_t recomputed_partitions() const { return recomputed_partitions_; }
  /// Per-(stage, partition) recompute counts — the chaos suite checks
  /// completions == 1 + recomputes for every partition.
  const std::map<std::pair<StageId, int>, int>& recompute_counts() const {
    return recompute_counts_;
  }

 private:
  struct StageProgress {
    const Stage* stage = nullptr;
    std::set<int> remaining_partitions;
    bool submitted = false;
    bool complete = false;
  };
  /// One in-flight application with its active job's stage progress.
  struct AppRun {
    const Application* app = nullptr;
    DoneFn on_done;
    std::size_t next_job = 0;      // index into app->jobs of the next job
    const Job* job = nullptr;      // the active job (jobs are sequential)
    SimTime job_submitted = 0.0;
    std::map<StageId, StageProgress> progress;  // stages of the active job
  };

  void start_next_job(AppRun& run);
  void submit_ready_stages(AppRun& run);
  void finish_job(AppRun& run);
  bool needed_by_incomplete_child(const AppRun& run, StageId stage) const;

  Simulator& sim_;
  SubmitFn submit_;
  SubmitFn resubmit_;
  JobObserverFn job_observer_;
  std::vector<std::unique_ptr<AppRun>> apps_;
  std::map<StageId, AppRun*> stage_index_;  // active jobs' stages → owner
  MapOutputTracker outputs_;
  std::size_t jobs_completed_ = 0;
  std::size_t apps_completed_ = 0;
  std::size_t recomputed_partitions_ = 0;
  std::size_t stages_submitted_ = 0;
  std::size_t stages_completed_ = 0;
  std::map<std::pair<StageId, int>, int> recompute_counts_;
};

}  // namespace rupam
