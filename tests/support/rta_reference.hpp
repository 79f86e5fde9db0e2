// Test-only reference for the analysis kernel (src/sched/kernel.hpp):
// the straightforward analysis path the kernel replaced, kept to hold it
// equal on random sets.
//
//   * RTA per task on the whole TaskSet: interferers by
//     interferers_of (a sorted TaskId vector), the level-i load test on two freshly
//     built vectors, then the busy-period job loop of paper Figure 2
//     with every fixed point started cold;
//   * feasibility as the load test plus that RTA for every task;
//   * the allowances as a binary search whose every probe copies the
//     set with inflated costs (with_all_costs_inflated / with_cost) and
//     re-runs the full feasibility check;
//   * the partitioners admitting each candidate by the feasibility of a
//     freshly built subset() TaskSet of the core's tasks.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "multicore/partition.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/response_time.hpp"
#include "sched/task.hpp"

namespace rtft::ref {

/// +1 if sum(costs[i]/periods[i]) > 1, 0 if == 1, -1 if < 1, exactly
/// (see LoadSum).
[[nodiscard]] int compare_load_to_one(std::span<const Duration> costs,
                                      std::span<const Duration> periods);
/// The paper's HP(S): tasks with priority higher than or equal to
/// `id`'s, excluding `id`, by descending priority (ties by TaskId).
[[nodiscard]] std::vector<sched::TaskId> interferers_of(
    const sched::TaskSet& ts, sched::TaskId id);

/// Copy of `ts` with every cost inflated by `extra` (the §4.2 probe).
[[nodiscard]] sched::TaskSet with_all_costs_inflated(const sched::TaskSet& ts,
                                                     Duration extra);
/// Copy of `ts` with task `id`'s cost replaced (the §4.3 probe).
[[nodiscard]] sched::TaskSet with_cost(const sched::TaskSet& ts,
                                       sched::TaskId id, Duration cost);

[[nodiscard]] sched::RtaResult response_time(const sched::TaskSet& ts,
                                             sched::TaskId id,
                                             const sched::RtaOptions& opts = {});
[[nodiscard]] std::optional<Duration> classic_response_time(
    const sched::TaskSet& ts, sched::TaskId id,
    const sched::RtaOptions& opts = {});
[[nodiscard]] sched::FeasibilityReport analyze(
    const sched::TaskSet& ts, const sched::RtaOptions& opts = {});
[[nodiscard]] bool is_feasible(const sched::TaskSet& ts,
                               const sched::RtaOptions& opts = {});

/// Largest k*granularity in [0, hi_bound) with feasible(k*granularity),
/// given feasible(0), monotonicity and !feasible(hi_bound).
[[nodiscard]] Duration monotone_search(
    Duration granularity, Duration hi_bound,
    const std::function<bool(Duration)>& feasible);

[[nodiscard]] sched::EquitableAllowance equitable_allowance(
    const sched::TaskSet& ts, const sched::AllowanceOptions& opts = {});
[[nodiscard]] Duration max_single_task_overrun(
    const sched::TaskSet& ts, sched::TaskId id,
    const sched::AllowanceOptions& opts = {});
[[nodiscard]] sched::SystemAllowance system_allowance(
    const sched::TaskSet& ts, const sched::AllowanceOptions& opts = {});

[[nodiscard]] multicore::Placement first_fit_place(const sched::TaskSet& ts,
                                                   std::size_t cores);
[[nodiscard]] multicore::Placement fault_aware_place(const sched::TaskSet& ts,
                                                     std::size_t cores);
[[nodiscard]] bool survives_any_single_fault(
    const sched::TaskSet& ts, const multicore::Placement& placement,
    std::size_t cores);

}  // namespace rtft::ref
