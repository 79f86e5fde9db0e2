#include "sched/kernel.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace rtft::sched {
namespace {

constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();

enum class Step : std::uint8_t { kFixed, kAbove, kFailed };

/// Iterates R <- base + Σ_{j<end, j≠k} ceil((R + J_j)/T_j)·C_j from `r`,
/// a lower bound on the least fixed point. kFixed: `r` is that fixed
/// point. kAbove: an iterate passed `limit` (left in `r`; iterating on
/// continues the same sequence). kFailed: overflow or the budget ran out.
Step iterate(std::span<const RtaSlot> set, std::size_t k, std::size_t end,
             std::int64_t base, std::int64_t& r, std::int64_t limit,
             std::int64_t& budget) {
  while (r <= limit) {
    if (budget-- <= 0) return Step::kFailed;
    std::int64_t next = base;
    for (std::size_t j = 0; j < end; ++j) {
      if (j == k) continue;
      std::int64_t window = 0, add = 0;
      if (__builtin_add_overflow(r, set[j].jitter, &window) ||
          __builtin_mul_overflow(
              window / set[j].period + (window % set[j].period != 0),
              set[j].cost, &add) ||
          __builtin_add_overflow(next, add, &next)) {
        return Step::kFailed;
      }
    }
    if (next == r) return Step::kFixed;
    RTFT_ASSERT(next > r, "fixed-point iterate must be monotone");
    r = next;
  }
  return Step::kAbove;
}

}  // namespace

void RtaView::assign(const TaskSet& ts) {
  set = &ts;
  slots.clear();
  slots.reserve(ts.size());
  for (TaskId id = 0; id < ts.size(); ++id) {
    slots.push_back(RtaSlot::of(ts[id], id, ts[id].priority));
  }
  std::sort(slots.begin(), slots.end(), [](const RtaSlot& a, const RtaSlot& b) {
    return a.priority != b.priority ? a.priority > b.priority : a.id < b.id;
  });
}

void RtaView::set_costs(std::int64_t extra, std::optional<TaskId> only) {
  for (RtaSlot& s : slots) {
    s.cost = (*set)[s.id].cost.count() + (!only || *only == s.id ? extra : 0);
  }
}

std::size_t RtaView::rank_of(TaskId id) const {
  RTFT_EXPECTS(id < slots.size(), "task id out of range");
  std::size_t r = 0;
  while (slots[r].id != id) ++r;
  return r;
}

RtaResult analyze_slot(std::span<RtaSlot> set, std::size_t k,
                       const RtaOptions& opts, bool to_deadline) {
  RTFT_EXPECTS(k < set.size(), "slot out of range");
  const RtaSlot& task = set[k];
  std::size_t end = k + 1;  // hep(k) is [0, end) without k.
  while (end < set.size() && set[end].priority == task.priority) ++end;

  RtaResult result;
  std::int64_t budget = opts.max_iterations, previous = 0;
  // The level-i load test is only needed once job 0 outlives its period:
  // a job-0 completion within Ti closes the busy period, which no load
  // above 1 allows.
  bool load_checked = false;
  for (std::int64_t q = 0; q < opts.max_jobs; ++q) {
    const auto base = checked_mul(q + 1, task.cost);
    if (!base) return result;
    // Seed with the previous job's completion (a lower bound on this
    // one's) or the base; job 0 with the slot's warm start.
    std::int64_t r = std::max({previous, *base, q == 0 ? task.first : 0});
    const std::int64_t release = q * task.period;
    const std::int64_t miss_after =
        to_deadline ? checked_add(release, task.deadline).value_or(kNoLimit)
                    : kNoLimit;
    for (;;) {
      const std::int64_t limit =
          load_checked ? miss_after : std::min(miss_after, task.period);
      const Step step = iterate(set, k, end, *base, r, limit, budget);
      if (step == Step::kFixed) break;
      if (step == Step::kFailed) return result;  // guard rail: unbounded
      if (load_checked || r <= task.period) return result;  // a miss
      load_checked = true;
      LoadSum load;
      for (const RtaSlot& s : set.first(end)) load.add(s.cost, s.period);
      if (load.compare_to_one() > 0) return RtaResult{};  // diverges
    }
    previous = r;
    if (q == 0) set[k].next_first = r;

    const std::int64_t response = r - release;
    result.jobs_examined = q + 1;
    if (opts.record_jobs && result.jobs.size() < opts.max_recorded_jobs) {
      result.jobs.push_back(
          JobResponse{q, Duration::ns(r), Duration::ns(response)});
    }
    if (q == 0 || response > result.wcrt.count()) {
      result.wcrt = Duration::ns(response);
      result.worst_job = q;
    }
    // Busy period closes: this job completed within its own period slot,
    // so it exerts no carry-in on the next job.
    if (r <= task.period * (q + 1)) {
      result.bounded = true;
      return result;
    }
  }
  return result;  // max_jobs exhausted: report unbounded
}

std::optional<Duration> first_job_completion(std::span<RtaSlot> set,
                                             std::size_t k, RtaOptions opts) {
  opts.max_jobs = 1;
  opts.record_jobs = false;
  const RtaResult r = analyze_slot(set, k, opts, false);
  return r.jobs_examined == 0 ? std::nullopt : std::optional(r.wcrt);
}

bool meets_deadline(std::span<RtaSlot> set, std::size_t k,
                    const RtaOptions& opts) {
  // Deadline mode stops at the first job past its deadline, so every
  // job of a bounded result met it.
  return analyze_slot(set, k, opts, true).bounded;
}

bool all_meet_deadlines(std::span<RtaSlot> set, const RtaOptions& opts,
                        std::size_t from) {
  for (std::size_t k = from; k < set.size(); ++k) {
    if (!meets_deadline(set, k, opts)) return false;
  }
  for (std::size_t k = from; k < set.size(); ++k) {
    set[k].first = set[k].next_first;
  }
  return true;
}

bool try_admit(std::vector<RtaSlot>& core, const RtaSlot& slot) {
  // After every slot of higher or equal priority: hep sets stay prefixes.
  std::size_t pos = core.size();
  while (pos > 0 && core[pos - 1].priority < slot.priority) --pos;
  core.insert(core.begin() + static_cast<std::ptrdiff_t>(pos), slot);
  core[pos].first = 0;
  // Adding a task changes the response of its equal-priority peers and
  // of everything below it; the tasks above never see it.
  std::size_t from = pos;
  while (from > 0 && core[from - 1].priority == slot.priority) --from;
  if (all_meet_deadlines(core, {}, from)) return true;
  core.erase(core.begin() + static_cast<std::ptrdiff_t>(pos));
  return false;
}

}  // namespace rtft::sched
