// Periodic task model for fixed-priority preemptive scheduling.
//
// Follows the paper's notation: a task τi has a cost Ci, a relative
// deadline Di, a period Ti and a priority Pi (RTSJ convention: a larger
// priority value is more urgent). Deadlines may exceed periods — the
// analysis handles the general case (Lehoczky 1990).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace rtft::sched {

/// RTSJ-style priority: larger value = more urgent.
using Priority = int;

/// Index of a task within a TaskSet. Stable for the lifetime of the set.
using TaskId = std::size_t;

/// Static parameters of one periodic task.
struct TaskParams {
  std::string name;
  Priority priority = 0;
  Duration cost;            ///< Ci — worst-case execution time per job.
  Duration period;          ///< Ti — inter-release separation.
  Duration deadline;        ///< Di — relative deadline; may exceed Ti.
  Duration offset;          ///< release date of the first job (default 0).

  /// Utilization Ci/Ti of this task alone.
  [[nodiscard]] double utilization() const {
    return static_cast<double>(cost.count()) /
           static_cast<double>(period.count());
  }
};

/// An immutable-after-construction collection of periodic tasks.
///
/// TaskIds are the insertion indices; all analysis results are reported
/// in TaskId order. Names must be unique and non-empty; parameters are
/// validated on insertion (positive period/cost/deadline, non-negative
/// offset). Equal priorities are allowed — analysis treats equal-priority
/// tasks as mutually interfering, matching the paper's HP(S) definition
/// ("higher or equal priority").
class TaskSet {
 public:
  TaskSet() = default;

  /// Validates and appends a task; returns its TaskId.
  /// Throws ContractViolation on invalid parameters or duplicate name.
  TaskId add(TaskParams params);

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] const TaskParams& operator[](TaskId id) const;
  [[nodiscard]] const std::vector<TaskParams>& tasks() const { return tasks_; }

  [[nodiscard]] auto begin() const { return tasks_.begin(); }
  [[nodiscard]] auto end() const { return tasks_.end(); }

  /// TaskId of the task named `name`; throws if absent.
  [[nodiscard]] TaskId find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;

  /// All TaskIds ordered by descending priority (ties by TaskId).
  [[nodiscard]] std::vector<TaskId> by_priority_desc() const;

  /// Total utilization U = Σ Ci/Ti.
  [[nodiscard]] double utilization() const;

  /// Copy without the given task (remaining TaskIds shift down).
  [[nodiscard]] TaskSet without(TaskId id) const;

  /// Copy with one task's priority replaced.
  [[nodiscard]] TaskSet with_priority(TaskId id, Priority p) const;

 private:
  std::vector<TaskParams> tasks_;
};

/// Validates a single task's parameters; throws ContractViolation with a
/// precise message when invalid. Exposed for config-file validation.
void validate_params(const TaskParams& params);

}  // namespace rtft::sched
