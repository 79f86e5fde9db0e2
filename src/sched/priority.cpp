#include "sched/priority.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "sched/kernel.hpp"

namespace rtft::sched {
namespace {

/// Rebuilds `ts` with priorities assigned by rank: rank_order[0] gets the
/// highest priority, the next one less, etc.
TaskSet with_ranked_priorities(const TaskSet& ts,
                               const std::vector<TaskId>& rank_order,
                               Priority top) {
  RTFT_EXPECTS(rank_order.size() == ts.size(), "rank order size mismatch");
  RTFT_EXPECTS(top - static_cast<Priority>(ts.size()) + 1 >=
                   std::numeric_limits<Priority>::min() / 2,
               "priority range underflow");
  std::vector<Priority> assigned(ts.size(), 0);
  Priority p = top;
  for (TaskId id : rank_order) assigned[id] = p--;
  TaskSet out;
  for (TaskId i = 0; i < ts.size(); ++i) {
    TaskParams copy = ts[i];
    copy.priority = assigned[i];
    out.add(std::move(copy));
  }
  return out;
}

}  // namespace

TaskSet with_rate_monotonic_priorities(const TaskSet& ts, Priority top) {
  std::vector<TaskId> order(ts.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ts[a].period < ts[b].period;
  });
  return with_ranked_priorities(ts, order, top);
}

TaskSet with_deadline_monotonic_priorities(const TaskSet& ts, Priority top) {
  std::vector<TaskId> order(ts.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ts[a].deadline < ts[b].deadline;
  });
  return with_ranked_priorities(ts, order, top);
}

std::optional<TaskSet> audsley_assignment(const TaskSet& ts, Priority top,
                                          const RtaOptions& opts) {
  // Audsley's algorithm: assign priority levels from the lowest upward.
  // At each level, any unassigned task whose response time meets its
  // deadline with all other unassigned tasks as interferers may take the
  // level; if none can, no fixed-priority assignment is feasible.
  const std::size_t n = ts.size();
  std::vector<TaskId> unassigned(n);
  std::iota(unassigned.begin(), unassigned.end(), TaskId{0});
  // rank_order[0] will be the highest-priority task.
  std::vector<TaskId> rank_order(n);
  // Trial level: the candidate last, below every other unassigned task.
  // Already-assigned (lower) tasks cannot interfere.
  std::vector<RtaSlot> trial;

  for (std::size_t level = n; level > 0; --level) {
    bool placed = false;
    for (std::size_t k = 0; k < unassigned.size(); ++k) {
      const TaskId candidate = unassigned[k];
      trial.clear();
      for (const TaskId other : unassigned) {
        if (other != candidate) {
          trial.push_back(RtaSlot::of(ts[other], other, 1));
        }
      }
      trial.push_back(RtaSlot::of(ts[candidate], candidate, 0));
      const RtaResult rta =
          analyze_slot(trial, trial.size() - 1, opts, false);
      if (rta.bounded && rta.wcrt <= ts[candidate].deadline) {
        rank_order[level - 1] = candidate;
        unassigned.erase(unassigned.begin() +
                         static_cast<std::ptrdiff_t>(k));
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  return with_ranked_priorities(ts, rank_order, top);
}

}  // namespace rtft::sched
