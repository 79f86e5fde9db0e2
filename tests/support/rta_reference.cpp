#include "support/rta_reference.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "sched/utilization.hpp"

namespace rtft::ref {
namespace {

using sched::TaskId;
using sched::TaskParams;
using sched::TaskSet;

/// True when the combined utilization of `id` and its interferers
/// strictly exceeds 1 — the level-i busy period then provably diverges.
bool interfering_load_exceeds_one(const TaskSet& ts, TaskId id,
                                  const std::vector<TaskId>& hp) {
  std::vector<Duration> costs;
  std::vector<Duration> periods;
  costs.push_back(ts[id].cost);
  periods.push_back(ts[id].period);
  for (TaskId j : hp) {
    costs.push_back(ts[j].cost);
    periods.push_back(ts[j].period);
  }
  return compare_load_to_one(costs, periods) > 0;
}

/// Least fixed point of R = base + Σ ceil(R/Tj)·Cj, starting from `seed`.
std::optional<Duration> fixed_point(const TaskSet& ts,
                                    const std::vector<TaskId>& hp,
                                    Duration base, Duration seed,
                                    std::int64_t& iteration_budget) {
  Duration r = seed;
  while (iteration_budget-- > 0) {
    Duration next = base;
    for (TaskId j : hp) {
      const std::int64_t releases = ceil_div(r, ts[j].period);
      const auto add = checked_mul(releases, ts[j].cost.count());
      if (!add) return std::nullopt;
      const auto sum = checked_add(next.count(), *add);
      if (!sum) return std::nullopt;
      next = Duration::ns(*sum);
    }
    if (next == r) return r;
    RTFT_ASSERT(next > r, "fixed-point iterate must be monotone");
    r = next;
  }
  return std::nullopt;
}

Duration infeasibility_bound_all(const TaskSet& ts) {
  Duration bound = Duration::max();
  for (const TaskParams& t : ts) {
    const Duration slack = t.deadline - t.cost;
    if (slack < bound) bound = slack;
  }
  return (bound.is_negative() ? Duration::zero() : bound) + Duration::ns(1);
}

std::vector<TaskId> by_utilization_desc(const TaskSet& ts) {
  std::vector<TaskId> order(ts.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const double ua = ts[a].utilization();
    const double ub = ts[b].utilization();
    return ua != ub ? ua > ub : a < b;
  });
  return order;
}

TaskSet subset(const TaskSet& ts, const std::vector<TaskId>& ids) {
  TaskSet out;
  for (const TaskId id : ids) out.add(ts[id]);
  return out;
}

bool place_primaries(const TaskSet& ts, std::size_t cores,
                     multicore::Placement& p) {
  std::vector<std::vector<TaskId>> on_core(cores);
  for (const TaskId id : by_utilization_desc(ts)) {
    bool placed = false;
    for (std::size_t c = 0; c < cores && !placed; ++c) {
      std::vector<TaskId> candidate = on_core[c];
      candidate.push_back(id);
      if (ref::is_feasible(subset(ts, candidate))) {
        on_core[c] = std::move(candidate);
        p.primary[id] = c;
        placed = true;
      }
    }
    if (!placed) {
      p.reason = "no core can schedule task '" + ts[id].name +
                 "' on top of its first-fit load";
      return false;
    }
  }
  return true;
}

multicore::Placement unplaced(const TaskSet& ts) {
  multicore::Placement p;
  p.primary.assign(ts.size(), multicore::kNoCore);
  p.backup.assign(ts.size(), multicore::kNoCore);
  return p;
}

}  // namespace

int compare_load_to_one(std::span<const Duration> costs,
                        std::span<const Duration> periods) {
  RTFT_EXPECTS(costs.size() == periods.size(), "costs/periods size mismatch");
  LoadSum load;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    load.add(costs[i].count(), periods[i].count());
  }
  return load.compare_to_one();
}

std::vector<TaskId> interferers_of(const TaskSet& ts, TaskId id) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  std::vector<TaskId> out;
  for (TaskId j = 0; j < ts.size(); ++j) {
    if (j != id && ts[j].priority >= ts[id].priority) out.push_back(j);
  }
  std::stable_sort(out.begin(), out.end(), [&](TaskId a, TaskId b) {
    return ts[a].priority > ts[b].priority;
  });
  return out;
}

TaskSet with_all_costs_inflated(const TaskSet& ts, Duration extra) {
  RTFT_EXPECTS(!extra.is_negative(), "inflation must be non-negative");
  TaskSet out;
  for (TaskParams t : ts) {
    t.cost += extra;
    out.add(std::move(t));
  }
  return out;
}

TaskSet with_cost(const TaskSet& ts, TaskId id, Duration cost) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  TaskSet out;
  for (TaskParams t : ts) {
    if (out.size() == id) t.cost = cost;
    out.add(std::move(t));
  }
  return out;
}

sched::RtaResult response_time(const TaskSet& ts, TaskId id,
                               const sched::RtaOptions& opts) {
  const TaskParams& task = ts[id];
  const std::vector<TaskId> hp = interferers_of(ts, id);
  sched::RtaResult result;
  if (interfering_load_exceeds_one(ts, id, hp)) return result;

  std::int64_t iteration_budget = opts.max_iterations;
  Duration previous_completion = Duration::zero();
  for (std::int64_t q = 0; q < opts.max_jobs; ++q) {
    const auto base_ns = checked_mul(q + 1, task.cost.count());
    if (!base_ns) return result;
    const Duration base = Duration::ns(*base_ns);
    const Duration seed =
        previous_completion > base ? previous_completion : base;
    const auto completion = fixed_point(ts, hp, base, seed, iteration_budget);
    if (!completion) return result;
    previous_completion = *completion;
    const Duration response = *completion - task.period * q;
    result.jobs_examined = q + 1;
    if (opts.record_jobs && result.jobs.size() < opts.max_recorded_jobs) {
      result.jobs.push_back(sched::JobResponse{q, *completion, response});
    }
    if (q == 0 || response > result.wcrt) {
      result.wcrt = response;
      result.worst_job = q;
    }
    if (*completion <= task.period * (q + 1)) {
      result.bounded = true;
      return result;
    }
  }
  return result;
}

std::optional<Duration> classic_response_time(const TaskSet& ts, TaskId id,
                                              const sched::RtaOptions& opts) {
  const std::vector<TaskId> hp = interferers_of(ts, id);
  if (interfering_load_exceeds_one(ts, id, hp)) return std::nullopt;
  std::int64_t budget = opts.max_iterations;
  return fixed_point(ts, hp, ts[id].cost, ts[id].cost, budget);
}

sched::FeasibilityReport analyze(const TaskSet& ts,
                                 const sched::RtaOptions& opts) {
  sched::FeasibilityReport report;
  report.load = sched::load_test(ts);
  report.utilization = ts.utilization();
  bool all_ok = true;
  for (TaskId i = 0; i < ts.size(); ++i) {
    sched::TaskVerdict v;
    v.id = i;
    const sched::RtaResult rta = ref::response_time(ts, i, opts);
    v.bounded = rta.bounded;
    v.wcrt = rta.wcrt;
    v.meets_deadline = rta.bounded && rta.wcrt <= ts[i].deadline;
    all_ok = all_ok && v.meets_deadline;
    report.tasks.push_back(v);
  }
  report.feasible = all_ok && report.load != sched::LoadVerdict::kAboveOne;
  return report;
}

bool is_feasible(const TaskSet& ts, const sched::RtaOptions& opts) {
  return ref::analyze(ts, opts).feasible;
}

Duration monotone_search(Duration granularity, Duration hi_bound,
                         const std::function<bool(Duration)>& feasible) {
  RTFT_EXPECTS(granularity.is_positive(), "granularity must be positive");
  std::int64_t lo = 0;
  std::int64_t hi = ceil_div(hi_bound, granularity);
  RTFT_ASSERT(hi >= 1, "search upper bound must be positive");
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (feasible(granularity * mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return granularity * lo;
}

sched::EquitableAllowance equitable_allowance(
    const TaskSet& ts, const sched::AllowanceOptions& opts) {
  sched::EquitableAllowance out;
  if (!ref::is_feasible(ts, opts.rta)) return out;
  out.feasible_at_zero = true;
  out.allowance = ref::monotone_search(
      opts.granularity, infeasibility_bound_all(ts), [&](Duration a) {
        return ref::is_feasible(ref::with_all_costs_inflated(ts, a),
                                opts.rta);
      });
  const TaskSet inflated = ref::with_all_costs_inflated(ts, out.allowance);
  for (TaskId i = 0; i < ts.size(); ++i) {
    out.inflated_wcrt.push_back(
        ref::response_time(inflated, i, opts.rta).wcrt);
  }
  return out;
}

Duration max_single_task_overrun(const TaskSet& ts, TaskId id,
                                 const sched::AllowanceOptions& opts) {
  if (!ref::is_feasible(ts, opts.rta)) return Duration::zero();
  const Duration own_slack = ts[id].deadline - ts[id].cost;
  const Duration hi =
      (own_slack.is_negative() ? Duration::zero() : own_slack) +
      Duration::ns(1);
  return ref::monotone_search(opts.granularity, hi, [&](Duration extra) {
    return ref::is_feasible(ref::with_cost(ts, id, ts[id].cost + extra),
                            opts.rta);
  });
}

sched::SystemAllowance system_allowance(const TaskSet& ts,
                                        const sched::AllowanceOptions& opts) {
  sched::SystemAllowance out;
  if (!ref::is_feasible(ts, opts.rta)) return out;
  out.feasible_at_zero = true;
  out.beneficiary = ts.by_priority_desc().front();
  out.budget = ref::max_single_task_overrun(ts, out.beneficiary, opts);
  const TaskSet worst_case =
      ref::with_cost(ts, out.beneficiary,
                     ts[out.beneficiary].cost + out.budget);
  for (TaskId i = 0; i < ts.size(); ++i) {
    const sched::RtaResult rta = ref::response_time(ts, i, opts.rta);
    out.nominal_wcrt.push_back(rta.wcrt);
    out.stop_thresholds.push_back(rta.wcrt + out.budget);
    out.sound_stop_thresholds.push_back(
        ref::response_time(worst_case, i, opts.rta).wcrt);
  }
  return out;
}

multicore::Placement first_fit_place(const TaskSet& ts, std::size_t cores) {
  multicore::Placement p = unplaced(ts);
  if (!place_primaries(ts, cores, p)) return p;
  if (cores > 1) {
    for (TaskId id = 0; id < ts.size(); ++id) {
      p.backup[id] = (p.primary[id] + 1) % cores;
    }
  }
  p.feasible = true;
  return p;
}

multicore::Placement fault_aware_place(const TaskSet& ts, std::size_t cores) {
  multicore::Placement p = unplaced(ts);
  if (!place_primaries(ts, cores, p)) return p;
  if (cores == 1) {
    p.feasible = true;
    return p;
  }
  std::vector<std::vector<TaskId>> primaries_on(cores);
  for (TaskId id = 0; id < ts.size(); ++id) {
    primaries_on[p.primary[id]].push_back(id);
  }
  std::vector<std::vector<std::vector<TaskId>>> groups(
      cores, std::vector<std::vector<TaskId>>(cores));
  for (const TaskId id : by_utilization_desc(ts)) {
    const std::size_t f = p.primary[id];
    bool placed = false;
    for (std::size_t j = 0; j < cores && !placed; ++j) {
      if (j == f) continue;
      std::vector<TaskId> candidate = primaries_on[j];
      candidate.insert(candidate.end(), groups[f][j].begin(),
                       groups[f][j].end());
      candidate.push_back(id);
      if (ref::is_feasible(subset(ts, candidate))) {
        groups[f][j].push_back(id);
        p.backup[id] = j;
        placed = true;
      }
    }
    if (!placed) {
      p.reason = "no core can absorb the backup of task '" + ts[id].name +
                 "' when core " + std::to_string(f) + " fails";
      return p;
    }
  }
  p.feasible = true;
  return p;
}

bool survives_any_single_fault(const TaskSet& ts,
                               const multicore::Placement& placement,
                               std::size_t cores) {
  if (!placement.feasible) return false;
  for (std::size_t f = 0; f < cores; ++f) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (j == f) continue;
      std::vector<TaskId> load;
      for (TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == j) load.push_back(id);
      }
      for (TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == f && placement.backup[id] == j) {
          load.push_back(id);
        }
      }
      if (!ref::is_feasible(subset(ts, load))) return false;
    }
  }
  for (TaskId id = 0; id < ts.size(); ++id) {
    if (cores > 1 && placement.backup[id] == multicore::kNoCore) return false;
  }
  return true;
}

}  // namespace rtft::ref
