// Admission control (paper §2): load test + per-task WCRT vs deadline.
//
// FeasibilityAnalysis mirrors the paper's incremental admission object
// (the work RTSJ delegates to through addToFeasibility() /
// removeFromFeasibility(), which the authors had to implement themselves
// because RI's version was wrong and jRate's was missing).
#pragma once

#include <string>
#include <string_view>

#include "sched/response_time.hpp"
#include "sched/task.hpp"
#include "sched/utilization.hpp"

namespace rtft::sched {

/// Analysis outcome for one task.
struct TaskVerdict {
  TaskId id = 0;
  bool bounded = false;       ///< WCRT computation terminated.
  Duration wcrt;              ///< valid when bounded.
  bool meets_deadline = false;///< bounded && wcrt <= deadline.
};

/// Full admission-control report.
struct FeasibilityReport {
  bool feasible = false;      ///< every task bounded and within deadline.
  LoadVerdict load = LoadVerdict::kBelowOne;
  double utilization = 0.0;
  std::vector<TaskVerdict> tasks;  ///< in TaskId order.

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary(const TaskSet& ts) const;
};

struct RtaView;

/// Runs the load test and the response-time analysis of every task.
[[nodiscard]] FeasibilityReport analyze(const TaskSet& ts,
                                        const RtaOptions& opts = {});
/// Same over a prebuilt view (sched/kernel.hpp), whose job-0 seeds it
/// uses and refreshes.
[[nodiscard]] FeasibilityReport analyze(RtaView& view,
                                        const RtaOptions& opts = {});

/// True iff every task's WCRT is bounded and within its deadline. Stops
/// at the first task that misses.
[[nodiscard]] bool is_feasible(const TaskSet& ts, const RtaOptions& opts = {});
[[nodiscard]] bool is_feasible(RtaView& view, const RtaOptions& opts = {});

/// Incremental admission control in the RTSJ style: tasks are admitted
/// only if the system stays feasible, and the mutation is rolled back
/// otherwise.
///
/// Robustness contract (a long-lived admission object must survive bad
/// input — the serving layer feeds it straight from clients):
///   * Every mutation is strong-exception-safe: if add()/add_unchecked()
///     throws (invalid parameters, duplicate name), the analysis is
///     exactly as it was before the call — candidates are built on a
///     copy and committed only on success.
///   * Mutations never assert on merely-absent state: remove() of an
///     unknown name reports false instead of throwing, so callers can
///     treat "already gone" as success.
class FeasibilityAnalysis {
 public:
  explicit FeasibilityAnalysis(RtaOptions opts = {}) : opts_(opts) {}

  /// Admits `params` iff the resulting system is feasible.
  /// Returns false (and leaves the set unchanged) otherwise. Throws
  /// ContractViolation on invalid parameters or a duplicate name,
  /// leaving the set unchanged.
  bool add(const TaskParams& params);

  /// Removes the named task. Returns false (never throws) if no such
  /// task. Removal never hurts feasibility, so it always succeeds when
  /// the task exists.
  bool remove(std::string_view name);

  /// Force-adds a task without the admission check (used to model systems
  /// that bypass admission control; analysis can then flag them). Same
  /// strong guarantee as add() when validation throws.
  void add_unchecked(const TaskParams& params);

  [[nodiscard]] const TaskSet& task_set() const { return set_; }
  [[nodiscard]] FeasibilityReport report() const {
    return analyze(set_, opts_);
  }

 private:
  TaskSet set_;
  RtaOptions opts_;
};

}  // namespace rtft::sched
