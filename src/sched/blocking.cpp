#include "sched/blocking.hpp"

#include "common/assert.hpp"
#include "sched/allowance.hpp"
#include "sched/kernel.hpp"

namespace rtft::sched {

void ResourceModel::add(CriticalSection section) {
  RTFT_EXPECTS(!section.task.empty(), "critical section needs a task");
  RTFT_EXPECTS(!section.resource.empty(),
               "critical section needs a resource");
  RTFT_EXPECTS(section.duration.is_positive(),
               "critical section duration must be positive");
  sections_.push_back(std::move(section));
}

void ResourceModel::add(std::string task, std::string resource,
                        Duration duration) {
  add(CriticalSection{std::move(task), std::move(resource), duration});
}

void ResourceModel::validate_against(const TaskSet& ts) const {
  for (const CriticalSection& s : sections_) {
    RTFT_EXPECTS(ts.contains(s.task),
                 "critical section references unknown task '" + s.task +
                     "'");
  }
}

std::optional<Priority> ResourceModel::ceiling(
    const TaskSet& ts, std::string_view resource) const {
  std::optional<Priority> best;
  for (const CriticalSection& s : sections_) {
    if (s.resource != resource) continue;
    const Priority p = ts[ts.find(s.task)].priority;
    if (!best || p > *best) best = p;
  }
  return best;
}

Duration ResourceModel::blocking_term(const TaskSet& ts, TaskId id) const {
  validate_against(ts);
  const Priority mine = ts[id].priority;
  Duration worst;
  for (const CriticalSection& s : sections_) {
    const TaskId owner = ts.find(s.task);
    if (owner == id) continue;
    if (ts[owner].priority >= mine) continue;  // only lower tasks block
    const auto c = ceiling(ts, s.resource);
    RTFT_ASSERT(c.has_value(), "section's resource must have a ceiling");
    if (*c < mine) continue;  // ceiling below us: we never contend
    if (s.duration > worst) worst = s.duration;
  }
  return worst;
}

namespace {

/// Single-job response of view slot k with `blocking` added to its own
/// cost: the classic R = C + B + interference. nullopt on divergence.
std::optional<Duration> blocked_response(RtaView& view, std::size_t k,
                                         Duration blocking,
                                         const RtaOptions& opts) {
  view.slots[k].cost += blocking.count();
  const auto r = first_job_completion(view.slots, k, opts);
  view.slots[k].cost -= blocking.count();
  return r;
}

}  // namespace

BlockingVerdict response_time_with_blocking(const TaskSet& ts, TaskId id,
                                            const ResourceModel& resources,
                                            const RtaOptions& opts) {
  BlockingVerdict v;
  v.id = id;
  v.blocking = resources.blocking_term(ts, id);
  RtaView view(ts);
  if (const auto r =
          blocked_response(view, view.rank_of(id), v.blocking, opts)) {
    v.bounded = true;
    v.wcrt = *r;
    v.meets_deadline = v.wcrt <= ts[id].deadline;
  }
  return v;
}

BlockingReport analyze_with_blocking(const TaskSet& ts,
                                     const ResourceModel& resources,
                                     const RtaOptions& opts) {
  BlockingReport report;
  report.feasible = true;
  for (TaskId i = 0; i < ts.size(); ++i) {
    BlockingVerdict v = response_time_with_blocking(ts, i, resources, opts);
    report.feasible = report.feasible && v.meets_deadline;
    report.tasks.push_back(std::move(v));
  }
  return report;
}

Duration equitable_allowance_with_blocking(const TaskSet& ts,
                                           const ResourceModel& resources,
                                           Duration granularity,
                                           const RtaOptions& opts) {
  RTFT_EXPECTS(granularity.is_positive(), "granularity must be positive");
  RtaView view(ts);
  const auto feasible = [&](Duration a) {
    view.set_costs(a.count());
    for (std::size_t k = 0; k < view.slots.size(); ++k) {
      const RtaSlot& s = view.slots[k];
      // B_i depends on priorities and critical sections only, not costs.
      const auto r =
          blocked_response(view, k, resources.blocking_term(ts, s.id), opts);
      if (!r || r->count() > s.deadline) return false;
    }
    return true;
  };
  if (!feasible(Duration::zero())) return Duration::zero();
  // Same search as the blocking-free case, below the slack limit.
  return largest_feasible_multiple(granularity, slack_limit(ts), feasible);
}

}  // namespace rtft::sched
