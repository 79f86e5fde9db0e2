#include "support/reference_engine.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/assert.hpp"

namespace rtft::ref {

using trace::EventKind;

ReferenceEngine::ReferenceEngine(ReferenceOptions options)
    : options_(options), now_(Instant::epoch()) {
  RTFT_EXPECTS(options_.horizon > Instant::epoch(),
               "reference horizon must be positive");
}

// -- registration -----------------------------------------------------------

rt::TaskHandle ReferenceEngine::add_task(const sched::TaskParams& params,
                                         CostFn cost) {
  sched::validate_params(params);
  RTFT_EXPECTS(Instant::epoch() + params.offset >= now_,
               "first release lies in the past");
  Task t;
  t.params = params;
  t.cost = std::move(cost);
  tasks_.push_back(std::move(t));
  const rt::TaskHandle handle = tasks_.size() - 1;
  push(Instant::epoch() + params.offset, Kind::kRelease, handle, 0);
  return handle;
}

rt::TimerHandle ReferenceEngine::add_one_shot_timer(Instant when,
                                                    TimerHandler handler) {
  RTFT_EXPECTS(when >= now_, "timer date lies in the past");
  timers_.push_back(Timer{std::move(handler), Duration::zero()});
  push(when, Kind::kTimer, timers_.size() - 1);
  return timers_.size() - 1;
}

rt::TimerHandle ReferenceEngine::add_periodic_timer(Instant first,
                                                    Duration period,
                                                    TimerHandler handler) {
  RTFT_EXPECTS(first >= now_, "timer date lies in the past");
  RTFT_EXPECTS(period.is_positive(), "timer period must be positive");
  timers_.push_back(Timer{std::move(handler), period});
  push(first, Kind::kTimer, timers_.size() - 1);
  return timers_.size() - 1;
}

void ReferenceEngine::cancel_timer(rt::TimerHandle timer) {
  timers_.at(timer).cancelled = true;
}

void ReferenceEngine::request_stop(rt::TaskHandle task, rt::StopMode mode,
                                   Duration extra_latency) {
  Task& t = tasks_.at(task);
  if (t.stopped) return;
  record(EventKind::kStopRequested, task,
         t.has_current ? t.cur : trace::kNoJob);
  push(now_ + options_.stop_poll_latency + extra_latency, Kind::kStopEffect,
       task, -1, 0, mode);
}

void ReferenceEngine::inject_overhead(Duration amount) {
  add_overhead(amount);
  reschedule();
}

// -- the event loop ---------------------------------------------------------

void ReferenceEngine::push(Instant time, Kind kind, std::size_t index,
                           std::int64_t job, std::uint64_t gen,
                           rt::StopMode stop_mode) {
  const Event ev{time, kind, next_seq_++, index, job, gen, stop_mode};
  const auto earlier = [](const Event& a, const Event& b) {
    return std::tie(a.time, a.kind, a.seq) < std::tie(b.time, b.kind, b.seq);
  };
  events_.insert(std::upper_bound(events_.begin(), events_.end(), ev, earlier),
                 ev);
}

void ReferenceEngine::run_until(Instant stop_at) {
  RTFT_EXPECTS(stop_at <= options_.horizon, "cannot run past the horizon");
  RTFT_EXPECTS(stop_at >= now_, "cannot run backwards");
  while (!events_.empty() && events_.front().time <= stop_at) {
    const Event ev = events_.front();
    events_.erase(events_.begin());
    advance_to(ev.time);
    dispatch(ev);
    reschedule();
  }
  advance_to(stop_at);
}

void ReferenceEngine::advance_to(Instant t) {
  const Duration elapsed = t - now_;
  if (cpu_ == Cpu::kTask) tasks_[running_].remaining -= elapsed;
  if (cpu_ == Cpu::kOverhead) overhead_ -= elapsed;
  now_ = t;
}

void ReferenceEngine::dispatch(const Event& ev) {
  switch (ev.kind) {
    case Kind::kCompletion: {
      Task& t = tasks_[ev.index];
      if (ev.gen != t.gen) return;  // preempted or aborted since.
      const Duration response = now_ - t.cur_release;
      t.stats.completed++;
      t.stats.last_response = response;
      t.stats.max_response = std::max(t.stats.max_response, response);
      retire_current_job(ev.index, rt::JobOutcome::kCompleted,
                         EventKind::kJobEnd);
      if (t.started < t.released) start_next_job(ev.index);
      return;
    }
    case Kind::kOverheadDone:
      if (ev.gen == overhead_gen_) cpu_ = Cpu::kIdle;
      return;
    case Kind::kStopEffect: {
      Task& t = tasks_[ev.index];
      if (t.stopped) return;
      if (ev.stop_mode == rt::StopMode::kTask) {
        t.stopped = true;
        t.stats.stopped = true;
        record(EventKind::kTaskStopped, ev.index,
               t.has_current ? t.cur : trace::kNoJob);
        if (t.has_current) {
          t.stats.aborted++;
          retire_current_job(ev.index, rt::JobOutcome::kAborted,
                             EventKind::kJobAborted);
        }
        for (; t.started < t.released; ++t.started) {
          t.outcomes[static_cast<std::size_t>(t.started)] =
              rt::JobOutcome::kSkipped;
        }
      } else if (t.has_current) {
        t.stats.aborted++;
        retire_current_job(ev.index, rt::JobOutcome::kAborted,
                           EventKind::kJobAborted);
        if (t.started < t.released) start_next_job(ev.index);
      }
      return;
    }
    case Kind::kTimer: {
      Timer& timer = timers_[ev.index];
      if (timer.cancelled) return;
      record(EventKind::kTimerFire, trace::kNoTask, trace::kNoJob,
             static_cast<std::int64_t>(ev.index));
      if (timer.period.is_positive()) {
        push(now_ + timer.period, Kind::kTimer, ev.index);
      }
      if (timer.handler) timer.handler(*this);
      return;
    }
    case Kind::kRelease: {
      Task& t = tasks_[ev.index];
      if (t.stopped) return;
      t.released++;
      t.outcomes.push_back(rt::JobOutcome::kPending);
      t.stats.released++;
      record(EventKind::kJobRelease, ev.index, ev.job);
      push(now_ + t.params.deadline, Kind::kDeadlineCheck, ev.index, ev.job);
      push(now_ + t.params.period, Kind::kRelease, ev.index, ev.job + 1);
      if (!t.has_current) start_next_job(ev.index);
      return;
    }
    case Kind::kDeadlineCheck: {
      Task& t = tasks_[ev.index];
      if (t.outcomes[static_cast<std::size_t>(ev.job)] !=
          rt::JobOutcome::kCompleted) {
        t.stats.missed++;
        record(EventKind::kDeadlineMiss, ev.index, ev.job);
      }
      return;
    }
  }
}

// -- jobs and the processor -------------------------------------------------

void ReferenceEngine::start_next_job(std::size_t task) {
  Task& t = tasks_[task];
  const std::int64_t job = t.started++;
  t.has_current = true;
  t.cur = job;
  t.cur_release = Instant::epoch() + t.params.offset + t.params.period * job;
  t.remaining = t.cost ? t.cost(job) : t.params.cost;
  RTFT_EXPECTS(t.remaining.is_positive(), "costs must be positive");
  if (t.remaining != t.params.cost) {
    record(EventKind::kOverrunInjected, task, job,
           (t.remaining - t.params.cost).count());
  }
  t.cur_started = false;
  t.ready_seq = next_ready_seq_++;
}

void ReferenceEngine::retire_current_job(std::size_t task,
                                         rt::JobOutcome outcome,
                                         EventKind kind) {
  Task& t = tasks_[task];
  t.outcomes[static_cast<std::size_t>(t.cur)] = outcome;
  const bool completed = outcome == rt::JobOutcome::kCompleted;
  record(kind, task, t.cur, completed ? (now_ - t.cur_release).count() : 0);
  if (cpu_ == Cpu::kTask && running_ == task) cpu_ = Cpu::kIdle;
  t.gen++;
  t.has_current = false;
  t.cur = -1;
}

/// The dispatch winner: highest priority, then earliest made ready.
bool ReferenceEngine::pick_top_task(std::size_t& out) const {
  bool found = false;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Task& t = tasks_[i];
    if (!t.has_current || t.stopped) continue;
    const Task* best = found ? &tasks_[out] : nullptr;
    if (best == nullptr || t.params.priority > best->params.priority ||
        (t.params.priority == best->params.priority &&
         t.ready_seq < best->ready_seq)) {
      out = i;
      found = true;
    }
  }
  return found;
}

void ReferenceEngine::preempt_running_job() {
  if (cpu_ != Cpu::kTask) return;  // overhead is never preempted.
  Task& t = tasks_[running_];
  record(EventKind::kJobPreempted, running_, t.cur);
  t.gen++;
  cpu_ = Cpu::kIdle;
}

void ReferenceEngine::add_overhead(Duration amount) {
  RTFT_EXPECTS(!amount.is_negative(), "overhead must be non-negative");
  if (amount.is_zero()) return;
  overhead_ += amount;
  if (cpu_ == Cpu::kOverhead) {  // extend the running overhead interval.
    overhead_gen_++;
    push(now_ + overhead_, Kind::kOverheadDone, 0, -1, overhead_gen_);
  }
}

void ReferenceEngine::reschedule() {
  // Overhead that drained exactly now yields the CPU now, even though
  // its (now stale) OverheadDone event may still be queued behind us.
  if (cpu_ == Cpu::kOverhead && overhead_.is_zero()) {
    overhead_gen_++;
    cpu_ = Cpu::kIdle;
  }
  std::size_t top = 0;
  const bool task_ready = pick_top_task(top);
  const bool overhead_pending = overhead_.is_positive();

  // A different job taking the CPU first pays the switch as overhead.
  if (!overhead_pending && task_ready &&
      options_.context_switch_cost.is_positive()) {
    const std::int64_t job = tasks_[top].cur;
    const bool different = last_task_ != top || last_job_ != job;
    const bool charged = charged_task_ == top && charged_job_ == job;
    if (different && !charged) {
      charged_task_ = top;
      charged_job_ = job;
      add_overhead(options_.context_switch_cost);
      reschedule();
      return;
    }
  }

  if (overhead_pending) {
    if (cpu_ == Cpu::kOverhead) return;
    preempt_running_job();
    cpu_ = Cpu::kOverhead;
    overhead_gen_++;
    push(now_ + overhead_, Kind::kOverheadDone, 0, -1, overhead_gen_);
    return;
  }
  if (!task_ready) {
    cpu_ = Cpu::kIdle;
    return;
  }
  if (cpu_ == Cpu::kTask && running_ == top) return;

  preempt_running_job();
  cpu_ = Cpu::kTask;
  running_ = top;
  Task& t = tasks_[top];
  record(t.cur_started ? EventKind::kJobResumed : EventKind::kJobStart, top,
         t.cur);
  t.cur_started = true;
  last_task_ = top;
  last_job_ = t.cur;
  charged_job_ = -1;  // the dispatch consumed any pending charge.
  t.gen++;
  push(now_ + t.remaining, Kind::kCompletion, top, t.cur, t.gen);
}

void ReferenceEngine::record(EventKind kind, std::size_t task,
                             std::int64_t job, std::int64_t detail) {
  if (options_.sink != nullptr) {
    options_.sink->record(now_, kind, static_cast<std::uint32_t>(task), job,
                          detail);
  }
}

// -- observation ------------------------------------------------------------

const rt::TaskStats& ReferenceEngine::stats(rt::TaskHandle task) const {
  return tasks_.at(task).stats;
}

rt::JobOutcome ReferenceEngine::job_outcome(rt::TaskHandle task,
                                            std::int64_t job) const {
  return tasks_.at(task).outcomes.at(static_cast<std::size_t>(job));
}

}  // namespace rtft::ref
