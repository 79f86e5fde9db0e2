#include "sched/task.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rtft::sched {

void validate_params(const TaskParams& params) {
  RTFT_EXPECTS(!params.name.empty(), "task name must be non-empty");
  RTFT_EXPECTS(params.period.is_positive(),
               "task '" + params.name + "': period must be positive");
  RTFT_EXPECTS(params.cost.is_positive(),
               "task '" + params.name + "': cost must be positive");
  RTFT_EXPECTS(params.deadline.is_positive(),
               "task '" + params.name + "': deadline must be positive");
  RTFT_EXPECTS(!params.offset.is_negative(),
               "task '" + params.name + "': offset must be non-negative");
}

TaskId TaskSet::add(TaskParams params) {
  validate_params(params);
  RTFT_EXPECTS(!contains(params.name),
               "duplicate task name '" + params.name + "'");
  tasks_.push_back(std::move(params));
  return tasks_.size() - 1;
}

const TaskParams& TaskSet::operator[](TaskId id) const {
  RTFT_EXPECTS(id < tasks_.size(), "task id out of range");
  return tasks_[id];
}

TaskId TaskSet::find(std::string_view name) const {
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return i;
  }
  RTFT_EXPECTS(false, "no task named '" + std::string(name) + "'");
  return 0;  // unreachable
}

bool TaskSet::contains(std::string_view name) const {
  return std::any_of(tasks_.begin(), tasks_.end(),
                     [&](const TaskParams& t) { return t.name == name; });
}

std::vector<TaskId> TaskSet::by_priority_desc() const {
  std::vector<TaskId> out(tasks_.size());
  for (TaskId i = 0; i < out.size(); ++i) out[i] = i;
  std::stable_sort(out.begin(), out.end(), [&](TaskId a, TaskId b) {
    return tasks_[a].priority > tasks_[b].priority;
  });
  return out;
}

double TaskSet::utilization() const {
  double u = 0.0;
  for (const TaskParams& t : tasks_) u += t.utilization();
  return u;
}

TaskSet TaskSet::without(TaskId id) const {
  RTFT_EXPECTS(id < tasks_.size(), "task id out of range");
  TaskSet out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (i != id) out.add(tasks_[i]);
  }
  return out;
}

TaskSet TaskSet::with_priority(TaskId id, Priority p) const {
  RTFT_EXPECTS(id < tasks_.size(), "task id out of range");
  TaskSet out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    TaskParams copy = tasks_[i];
    if (i == id) copy.priority = p;
    out.add(std::move(copy));
  }
  return out;
}

}  // namespace rtft::sched
