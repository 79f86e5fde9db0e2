// The analysis kernel: one flat, priority-ordered view of a task set and
// one allocation-free fixed-point routine over it.
//
// Every response-time question the library asks — plain RTA (Figure 2),
// feasibility, the §4.2/§4.3 allowances, the treatment thresholds,
// partitioned placement, jitter, blocking and Audsley's assignment — is
// the same least fixed point
//
//   R = (q+1)·C_i + Σ_{j ∈ hep(i), j ≠ i} ceil((R + J_j) / T_j) · C_j
//
// over a span of RtaSlots sorted by descending priority, so that hep(i)
// (higher or equal priority) is a prefix of the span. The view is built
// once per task set; the allowance search inflates its costs in place,
// and the partitioners grow per-core spans from its slots.
//
// Two properties make the callers cheap:
//   * Warm starts. A slot's `first` holds a lower bound on its job-0
//     completion (0 = none). Response times only grow with costs and
//     with added interferers, so the completion under a cheaper
//     configuration seeds the iteration of a dearer one; the least fixed
//     point reached is the same.
//   * Early exit. In deadline mode the iteration stops as soon as an
//     iterate passes a job's absolute deadline: iterates are lower
//     bounds, so that job provably misses.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/response_time.hpp"
#include "sched/task.hpp"

namespace rtft::sched {

/// One task of a priority-ordered view, in plain nanoseconds.
struct RtaSlot {
  std::int64_t cost = 0;
  std::int64_t period = 0;
  std::int64_t deadline = 0;
  std::int64_t jitter = 0;  ///< release jitter J; zero for plain RTA.
  /// Lower bound on job 0's completion under the current costs and
  /// interferers (0 = cold start).
  std::int64_t first = 0;
  /// Job 0's completion found by the last analysis, kept apart from
  /// `first` until the caller commits a whole configuration.
  std::int64_t next_first = 0;
  Priority priority = 0;
  TaskId id = 0;

  /// Task `id` with parameters `t` at priority `p`, cold.
  static RtaSlot of(const TaskParams& t, TaskId id, Priority p) {
    return {t.cost.count(), t.period.count(), t.deadline.count(), 0, 0, 0,
            p, id};
  }
};

/// A task set's slots in descending priority (ties by TaskId). Built
/// once per set; assign() keeps the capacity.
struct RtaView {
  RtaView() = default;
  explicit RtaView(const TaskSet& ts) { assign(ts); }
  /// Rebuilds the view for `ts`, which must outlive the view's use.
  void assign(const TaskSet& ts);
  /// Sets every cost to its nominal value plus `extra` — on task `only`
  /// alone when given. Seeds are left to the caller.
  void set_costs(std::int64_t extra, std::optional<TaskId> only = {});
  /// Position of task `id` in priority order.
  [[nodiscard]] std::size_t rank_of(TaskId id) const;

  const TaskSet* set = nullptr;
  std::vector<RtaSlot> slots;
};

/// Level-i analysis of `set[k]` (paper Figure 2) over a span sorted by
/// descending priority: the interferers are every other slot whose
/// priority is at least set[k]'s. Job 0 starts from `set[k].first` and
/// its completion lands in `set[k].next_first`. With `to_deadline`, the
/// analysis stops at the first job that provably misses set[k].deadline
/// and reports it unbounded; otherwise it is exactly response_time(),
/// and opts.max_jobs = 1 gives the classic single-job fixed point.
/// Allocates nothing unless opts.record_jobs.
[[nodiscard]] RtaResult analyze_slot(std::span<RtaSlot> set, std::size_t k,
                                     const RtaOptions& opts,
                                     bool to_deadline);

/// Job 0's completion alone: the classic single-job fixed point (Joseph
/// & Pandya), the WCRT when it does not exceed the period. nullopt when
/// it diverges.
[[nodiscard]] std::optional<Duration> first_job_completion(
    std::span<RtaSlot> set, std::size_t k, RtaOptions opts);

/// True iff set[k] meets its deadline (analyze_slot in deadline mode).
[[nodiscard]] bool meets_deadline(std::span<RtaSlot> set, std::size_t k,
                                  const RtaOptions& opts);

/// Every slot from `from` on within its deadline, checked in priority
/// order with an early exit. Only when all pass does each checked slot
/// keep its job-0 completion as its warm start (`first`), so a refused
/// configuration leaves the seeds as they were.
[[nodiscard]] bool all_meet_deadlines(std::span<RtaSlot> set,
                                      const RtaOptions& opts,
                                      std::size_t from = 0);

/// Incremental admission onto one core: inserts `slot` at its priority
/// position in `core` and keeps it iff every task stays within its
/// deadline. Only the tasks at or below its priority (equal priorities
/// included) are re-checked, warm-started from their current
/// completions; a refused task leaves `core` unchanged.
bool try_admit(std::vector<RtaSlot>& core, const RtaSlot& slot);

}  // namespace rtft::sched
