#include "dag/job.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

namespace rupam {
namespace {

/// A stage id and the index of the job holding it. Sorted, each id's
/// occurrences sit side by side.
struct StageRef {
  StageId id;
  std::size_t job;
  auto operator<=>(const StageRef&) const = default;
};

/// Every stage's own checks; then, over the sorted `refs` of all of
/// `jobs`' stages, a stage id repeated within a job or across jobs, and a
/// parent that is not in its stage's job.
void validate_stages(std::span<const Job> jobs, std::vector<StageRef>& refs) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto& s : jobs[j].stages) {
      s.validate();
      refs.push_back({s.id, j});
    }
  }
  std::sort(refs.begin(), refs.end());
  for (std::size_t i = 1; i < refs.size(); ++i) {
    if (refs[i].id != refs[i - 1].id) continue;
    throw std::invalid_argument(refs[i].job == refs[i - 1].job
                                    ? "Job: duplicate stage id"
                                    : "Application: stage id reused across jobs");
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto& s : jobs[j].stages) {
      for (StageId p : s.parents) {
        if (!std::binary_search(refs.begin(), refs.end(), StageRef{p, j})) {
          throw std::invalid_argument("Job: parent stage not in job");
        }
      }
    }
  }
}

}  // namespace

void Job::validate() const {
  std::vector<StageRef> refs;
  refs.reserve(stages.size());
  validate_stages(std::span<const Job>(this, 1), refs);
}

std::size_t Application::total_tasks() const {
  std::size_t n = 0;
  for (const auto& j : jobs) {
    for (const auto& s : j.stages) n += s.num_tasks();
  }
  return n;
}

std::size_t Application::total_stages() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.stages.size();
  return n;
}

void assign_pool(Application& app, const std::string& pool) {
  app.pool = pool;
  for (auto& job : app.jobs) {
    for (auto& stage : job.stages) stage.tasks.pool = pool;
  }
}

void offset_ids(Application& app, JobId job_base, StageId stage_base, TaskId task_base,
                const std::string& cache_tag) {
  auto retag = [&cache_tag](std::string& key) {
    if (!cache_tag.empty() && !key.empty()) key = cache_tag + key;
  };
  for (auto& job : app.jobs) {
    job.id += job_base;
    for (auto& stage : job.stages) {
      stage.id += stage_base;
      for (StageId& parent : stage.parents) parent += stage_base;
      stage.tasks.job = job.id;
      stage.tasks.stage = stage.id;
      for (auto& task : stage.tasks.tasks) {
        task.id += task_base;
        task.job = job.id;
        task.stage = stage.id;
        retag(task.input_cache_key);
        retag(task.cache_output_key);
      }
    }
  }
}

void Application::validate() const {
  // Flat sorted id lists: two allocations, however many stages and tasks.
  std::vector<StageRef> refs;
  refs.reserve(total_stages());
  validate_stages(jobs, refs);
  std::vector<TaskId> task_ids;
  task_ids.reserve(total_tasks());
  for (const auto& j : jobs) {
    for (const auto& s : j.stages) {
      for (const auto& t : s.tasks.tasks) task_ids.push_back(t.id);
    }
  }
  std::sort(task_ids.begin(), task_ids.end());
  if (std::adjacent_find(task_ids.begin(), task_ids.end()) != task_ids.end()) {
    throw std::invalid_argument("Application: duplicate task id");
  }
}

}  // namespace rupam
