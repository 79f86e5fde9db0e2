#include "sched/allowance.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sched/feasibility.hpp"
#include "sched/kernel.hpp"

namespace rtft::sched {
namespace {

/// Restores nominal costs and cold seeds however the search ends.
struct NominalOnExit {
  RtaView& view;
  ~NominalOnExit() {
    view.set_costs(0);
    for (RtaSlot& s : view.slots) s.first = 0;
  }
};

/// Largest k*granularity that keeps the set feasible with that extra
/// cost on `only` (every task when empty), given feasibility at zero
/// with seeds committed. Each probe inflates the view in place and
/// starts from the completions of the last feasible probe: response
/// times grow with the extra. Leaves the view at the result with
/// matching seeds.
Duration largest_feasible(RtaView& view, std::optional<TaskId> only,
                          Duration granularity, const RtaOptions& opts) {
  const Duration a = largest_feasible_multiple(
      granularity, slack_limit(*view.set, only), [&](Duration extra) {
        view.set_costs(extra.count(), only);
        return all_meet_deadlines(view.slots, opts);
      });
  view.set_costs(a.count(), only);
  return a;
}

/// WCRT of every slot under the current costs and seeds, TaskId order.
std::vector<Duration> wcrts(RtaView& view, const RtaOptions& opts) {
  std::vector<Duration> out(view.slots.size());
  for (std::size_t k = 0; k < view.slots.size(); ++k) {
    const RtaResult rta = analyze_slot(view.slots, k, opts, false);
    RTFT_ASSERT(rta.bounded, "the analyzed configuration is feasible");
    out[view.slots[k].id] = rta.wcrt;
  }
  return out;
}

}  // namespace

Duration slack_limit(const TaskSet& ts, std::optional<TaskId> only) {
  Duration slack = Duration::max();
  for (TaskId id = 0; id < ts.size(); ++id) {
    if (!only || *only == id) {
      slack = std::min(slack, ts[id].deadline - ts[id].cost);
    }
  }
  return std::max(slack, Duration::zero()) + Duration::ns(1);
}

EquitableAllowance equitable_allowance(RtaView& view,
                                       const AllowanceOptions& opts) {
  EquitableAllowance out;
  RTFT_EXPECTS(!view.slots.empty(), "allowance of an empty task set");
  const NominalOnExit restore{view};
  if (!is_feasible(view, opts.rta)) return out;  // feasible_at_zero = false
  out.feasible_at_zero = true;
  out.allowance = largest_feasible(view, {}, opts.granularity, opts.rta);
  out.inflated_wcrt = wcrts(view, opts.rta);
  return out;
}

EquitableAllowance equitable_allowance(const TaskSet& ts,
                                       const AllowanceOptions& opts) {
  RtaView view(ts);
  return equitable_allowance(view, opts);
}

Duration max_single_task_overrun(const TaskSet& ts, TaskId id,
                                 const AllowanceOptions& opts) {
  RtaView view(ts);
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  if (!is_feasible(view, opts.rta)) return Duration::zero();
  return largest_feasible(view, id, opts.granularity, opts.rta);
}

SystemAllowance system_allowance(const TaskSet& ts,
                                 const AllowanceOptions& opts) {
  SystemAllowance out;
  RTFT_EXPECTS(!ts.empty(), "allowance of an empty task set");
  RtaView view(ts);
  if (!is_feasible(view, opts.rta)) return out;
  out.feasible_at_zero = true;
  out.beneficiary = view.slots[0].id;
  out.nominal_wcrt = wcrts(view, opts.rta);
  out.budget =
      largest_feasible(view, out.beneficiary, opts.granularity, opts.rta);
  out.stop_thresholds = out.nominal_wcrt;
  for (Duration& t : out.stop_thresholds) t += out.budget;
  out.sound_stop_thresholds = wcrts(view, opts.rta);
  return out;
}

}  // namespace rtft::sched
