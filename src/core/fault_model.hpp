// Fault model (paper §3 and §6).
//
// A *temporal fault* is a job consuming more CPU than its declared cost —
// "either because it was underestimated, or because of an external event"
// (§3). The evaluation injects such overruns deliberately ("a cost overrun
// was voluntarily added for the priority task", §6). FaultPlan captures
// those injections declaratively and converts them into per-task
// CostModels for the engine. Negative deltas (cost under-runs, the §7
// future-work case) are also supported.
#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/engine.hpp"
#include "sched/task.hpp"

namespace rtft::core {

/// One injected cost deviation.
struct FaultSpec {
  std::string task;        ///< task name (resolved against the TaskSet).
  std::int64_t job_index;  ///< 0-based job whose cost deviates.
  Duration extra_cost;     ///< added to the nominal cost (may be negative).
};

/// Declarative collection of injected faults.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Adds a fault. Multiple faults on the same (task, job) accumulate.
  void add(FaultSpec spec);

  /// Convenience: overrun of `extra` on `task`'s job `job_index`.
  void add_overrun(std::string task, std::int64_t job_index, Duration extra);

  [[nodiscard]] bool empty() const { return faults_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& faults() const {
    return faults_;
  }

  /// Validates that every referenced task exists in `ts`.
  void validate_against(const sched::TaskSet& ts) const;

  /// Flat CostSpec for task `id`: kNominal when no fault touches the
  /// task, kFixedOverrunAtJob when all matching deltas hit one job (the
  /// paper's single-injection case — and everything the sweep emits),
  /// kCustom wrapping cost_model_for otherwise. Resolves to the same
  /// per-job costs as cost_model_for in every case.
  [[nodiscard]] rt::CostSpec cost_spec_for(const sched::TaskSet& ts,
                                           sched::TaskId id) const;

  /// CostModel for task `id`: nominal cost plus any matching deltas,
  /// floored at 1 ns (a job always does some work). Returns an empty
  /// model when no fault touches the task. cost_spec_for wraps it for
  /// multi-job plans; tests hold the flat specs equal to it.
  [[nodiscard]] rt::CostModel cost_model_for(const sched::TaskSet& ts,
                                             sched::TaskId id) const;

 private:
  std::vector<FaultSpec> faults_;
};

}  // namespace rtft::core
