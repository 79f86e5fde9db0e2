#include "sched/sensitivity.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "sched/feasibility.hpp"
#include "sched/kernel.hpp"

namespace rtft::sched {
std::optional<Duration> response_time_with_jitter(
    const TaskSet& ts, TaskId id, const std::vector<Duration>& jitters,
    const RtaOptions& opts) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  RTFT_EXPECTS(jitters.size() == ts.size(), "one jitter per task");
  RtaView view(ts);
  for (RtaSlot& s : view.slots) {
    RTFT_EXPECTS(!jitters[s.id].is_negative(), "jitter must be non-negative");
    s.jitter = jitters[s.id].count();
  }
  const auto r = first_job_completion(view.slots, view.rank_of(id), opts);
  if (!r) return std::nullopt;
  return *r + jitters[id];
}

bool is_feasible_with_jitter(const TaskSet& ts,
                             const std::vector<Duration>& jitters,
                             const RtaOptions& opts) {
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto r = response_time_with_jitter(ts, i, jitters, opts);
    if (!r || *r > ts[i].deadline) return false;
  }
  return true;
}

ScalingFactor critical_scaling_factor(const TaskSet& ts,
                                      std::int64_t precision_ppm,
                                      const RtaOptions& opts) {
  RTFT_EXPECTS(!ts.empty(), "scaling factor of an empty task set");
  RTFT_EXPECTS(precision_ppm > 0, "precision must be positive");

  RtaView view(ts);
  // Costs scaled by ppm/1e6, rounded up (an admission test must never
  // under-account work) and floored at 1 ns. They only grow with ppm and
  // the search only probes above its last feasible λ, so each probe
  // warm-starts from the seeds the last feasible one committed.
  const auto feasible_at = [&](std::int64_t ppm) {
    for (RtaSlot& s : view.slots) {
      const auto product = checked_mul((*view.set)[s.id].cost.count(), ppm);
      RTFT_EXPECTS(product.has_value(), "scaled cost overflows");
      s.cost = std::max<std::int64_t>((*product + 999'999) / 1'000'000, 1);
    }
    return is_feasible(view, opts);
  };

  // Upper bound: λ where some task's scaled cost alone exceeds its
  // deadline. λ <= min_i D_i/C_i, so start just above it.
  std::int64_t hi = 0;
  for (const TaskParams& t : ts) {
    const auto ratio = checked_mul(t.deadline.count(), 1'000'000);
    RTFT_EXPECTS(ratio.has_value(), "deadline/cost ratio overflows");
    const std::int64_t bound = *ratio / t.cost.count() + precision_ppm;
    if (hi == 0 || bound < hi) hi = bound;
  }
  RTFT_ASSERT(!feasible_at(hi), "upper bound must be infeasible");

  std::int64_t lo = 0;  // λ -> 0: costs floor at 1 ns; treat as feasible
  while (hi - lo > precision_ppm) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (feasible_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return ScalingFactor{lo};
}

}  // namespace rtft::sched
