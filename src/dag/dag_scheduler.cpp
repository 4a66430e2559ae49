#include "dag/dag_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"

namespace rupam {

DagScheduler::DagScheduler(Simulator& sim, SubmitFn submit)
    : sim_(sim), submit_(std::move(submit)) {
  if (!submit_) throw std::invalid_argument("DagScheduler: null submit function");
}

void DagScheduler::run(const Application& app, DoneFn on_done) {
  if (!apps_.empty()) throw std::logic_error("DagScheduler: application already running");
  submit_app(app, std::move(on_done));
}

void DagScheduler::submit_app(const Application& app, DoneFn on_done) {
  // Concurrent applications must live in disjoint stage-id spaces: StageId
  // keys the task scheduler's active-stage map and partition-success
  // routing (see offset_ids).
  std::vector<StageId> taken;
  for (const auto& other : apps_) {
    for (const auto& job : other->app->jobs) {
      for (const auto& stage : job.stages) taken.push_back(stage.id);
    }
  }
  std::sort(taken.begin(), taken.end());
  for (const auto& job : app.jobs) {
    for (const auto& stage : job.stages) {
      if (std::binary_search(taken.begin(), taken.end(), stage.id)) {
        throw std::invalid_argument(
            "DagScheduler: stage id collision between concurrent applications");
      }
    }
  }
  apps_.push_back(std::make_unique<AppRun>());
  AppRun& run = *apps_.back();
  run.app = &app;
  run.on_done = std::move(on_done);
  run.next_job = 0;
  start_next_job(run);
}

void DagScheduler::start_next_job(AppRun& run) {
  if (run.next_job >= run.app->jobs.size()) {
    // Application finished: detach it before firing the completion
    // callback so finished()/active_jobs() are consistent inside it.
    RUPAM_INFO(sim_.now(), "application '", run.app->name, "' finished");
    DoneFn done = std::move(run.on_done);
    for (auto it = apps_.begin(); it != apps_.end(); ++it) {
      if (it->get() == &run) {
        apps_.erase(it);
        break;
      }
    }
    ++apps_completed_;
    if (done) done();
    return;
  }
  const Job& job = run.app->jobs[run.next_job++];
  run.job = &job;
  run.job_submitted = sim_.now();
  run.progress.clear();
  RUPAM_INFO(sim_.now(), "starting job ", job.id, " (", job.name, ") with ", job.stages.size(),
             " stages");
  for (const auto& stage : job.stages) {
    StageProgress p;
    p.stage = &stage;
    const auto& tasks = stage.tasks.tasks;
    if (!tasks.empty()) {
      auto [lo, hi] = std::minmax_element(
          tasks.begin(), tasks.end(),
          [](const TaskSpec& a, const TaskSpec& b) { return a.partition < b.partition; });
      p.first_partition = lo->partition;
      p.outstanding.assign(static_cast<std::size_t>(hi->partition - lo->partition) + 1, false);
      for (const auto& t : tasks) p.mark_outstanding(t.partition);
    }
    if (p.remaining == 0) p.complete = true;  // degenerate empty stage
    run.progress.emplace(stage.id, std::move(p));
    stage_index_[stage.id] = &run;
  }
  submit_ready_stages(run);
}

void DagScheduler::submit_ready_stages(AppRun& run) {
  bool all_complete = true;
  for (auto& [id, p] : run.progress) {
    if (p.complete) continue;
    all_complete = false;
    if (p.submitted) continue;
    bool ready = true;
    for (StageId parent : p.stage->parents) {
      auto it = run.progress.find(parent);
      if (it != run.progress.end() && !it->second.complete) {
        ready = false;
        break;
      }
    }
    if (ready) {
      p.submitted = true;
      ++stages_submitted_;
      RUPAM_INFO(sim_.now(), "submitting stage ", id, " (", p.stage->name, ", ",
                 p.stage->num_tasks(), " tasks)");
      submit_(p.stage->tasks);
    }
  }
  if (all_complete) finish_job(run);
}

void DagScheduler::finish_job(AppRun& run) {
  const Job& job = *run.job;
  // Shuffle outputs are per-job; nothing fetches them once it is done.
  for (const auto& stage : job.stages) {
    outputs_.forget(job.id, stage.id);
    stage_index_.erase(stage.id);
  }
  ++jobs_completed_;
  if (job_observer_) {
    JobStats stats;
    stats.job = job.id;
    stats.name = job.name;
    stats.app = run.app->name;
    stats.pool = run.app->pool;
    stats.submitted = run.job_submitted;
    stats.finished = sim_.now();
    job_observer_(stats);
  }
  start_next_job(run);  // may finish the application and free `run`
}

void DagScheduler::on_partition_success(StageId stage, int partition, NodeId node) {
  auto owner = stage_index_.find(stage);
  if (owner == stage_index_.end()) return;  // stale report from a finished job
  AppRun& run = *owner->second;
  auto it = run.progress.find(stage);
  if (it == run.progress.end()) return;
  StageProgress& p = it->second;
  if (p.stage->is_shuffle_map && node != kInvalidNode) {
    outputs_.record(run.job->id, stage, partition, node);
  }
  p.mark_done(partition);
  if (!p.complete && p.remaining == 0) {
    p.complete = true;
    ++stages_completed_;
    RUPAM_INFO(sim_.now(), "stage ", stage, " (", p.stage->name, ") complete");
    submit_ready_stages(run);  // may finish the job/application; last use of `run`
  }
}

void DagScheduler::StageProgress::mark_outstanding(int partition) {
  auto index = static_cast<std::size_t>(partition - first_partition);
  if (outstanding[index]) return;
  outstanding[index] = true;
  ++remaining;
}

void DagScheduler::StageProgress::mark_done(int partition) {
  // A stale or foreign partition id is not outstanding.
  if (partition < first_partition) return;
  auto index = static_cast<std::size_t>(partition - first_partition);
  if (index >= outstanding.size() || !outstanding[index]) return;
  outstanding[index] = false;
  --remaining;
}

bool DagScheduler::needed_by_incomplete_child(const AppRun& run, StageId stage) const {
  for (const auto& [id, p] : run.progress) {
    if (p.complete) continue;
    for (StageId parent : p.stage->parents) {
      if (parent == stage) return true;
    }
  }
  return false;
}

std::size_t DagScheduler::on_node_lost(NodeId node) {
  if (apps_.empty()) return 0;
  auto lost = outputs_.invalidate_node(node);
  std::size_t resubmitted = 0;
  for (const auto& [key, partitions] : lost) {
    StageId stage_id = key.second;
    auto owner = stage_index_.find(stage_id);
    if (owner == stage_index_.end()) continue;
    AppRun& run = *owner->second;
    auto it = run.progress.find(stage_id);
    if (it == run.progress.end()) continue;
    StageProgress& p = it->second;
    // Outputs nobody will read again are dead weight — Spark only
    // recomputes on a FetchFailed, i.e. when a consumer still wants them.
    if (!needed_by_incomplete_child(run, stage_id)) continue;
    TaskSet partial = p.stage->tasks;
    partial.tasks.clear();
    for (const auto& spec : p.stage->tasks.tasks) {
      for (int lost_part : partitions) {
        if (spec.partition == lost_part) {
          partial.tasks.push_back(spec);
          break;
        }
      }
    }
    if (partial.tasks.empty()) continue;
    for (const auto& spec : partial.tasks) {
      p.mark_outstanding(spec.partition);
      ++recompute_counts_[{stage_id, spec.partition}];
    }
    p.complete = false;
    resubmitted += partial.tasks.size();
    recomputed_partitions_ += partial.tasks.size();
    RUPAM_WARN(sim_.now(), "node ", node, " lost ", partial.tasks.size(),
               " map output(s) of stage ", stage_id, " (", p.stage->name,
               ") — resubmitting");
    (resubmit_ ? resubmit_ : submit_)(partial);
  }
  return resubmitted;
}

std::size_t DagScheduler::active_jobs() const { return apps_.size(); }

std::vector<JobId> DagScheduler::active_job_ids() const {
  std::vector<JobId> out;
  out.reserve(apps_.size());
  for (const auto& run : apps_) {
    if (run->job != nullptr) out.push_back(run->job->id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rupam
