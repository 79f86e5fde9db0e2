// Test-only reference engine: a deliberately naive simulator of the
// scheduling semantics rt::Engine implements (src/runtime/engine.hpp),
// written to be read against the paper rather than to be fast. The
// equivalence suites hold rt::Engine equal to it event for event.
//
// The semantics, all in reference_engine.cpp:
//
//   * one processor, fixed-priority preemptive, FIFO within a priority;
//   * a task is one RTSJ thread: job k+1 starts only after job k ends,
//     so an overrunning job delays its successors and releases backlog
//     instead of being lost (waitForNextPeriod() of an elapsed period
//     returns at once);
//   * a stop request takes effect after the stop-poll latency (§4.1):
//     kTask ends the thread, kJob abandons only the current job;
//   * injected overhead (detector cost, §6.2) runs above every task;
//   * switching the CPU to a different job first costs
//     context_switch_cost, charged as overhead;
//   * every released job is checked at its deadline, after every other
//     event of that date, and misses unless it completed by then.
//
// The implementation picks the winner by scanning every task, keeps the
// pending events in one std::vector sorted by (time, kind, seq), queues
// one eager deadline-check event per released job, and takes costs only
// as closures. Simultaneous events order Completion < OverheadDone <
// StopEffect < Timer < Release < DeadlineCheck, then by creation order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"
#include "runtime/engine.hpp"
#include "sched/task.hpp"
#include "trace/sink.hpp"

namespace rtft::ref {

class ReferenceEngine;

/// Actual cost of job `job`; an empty function means the nominal cost.
using CostFn = std::function<Duration(std::int64_t job)>;
using TimerHandler = std::function<void(ReferenceEngine&)>;

struct ReferenceOptions {
  Instant horizon;
  Duration stop_poll_latency;
  Duration context_switch_cost;
  trace::Sink* sink = nullptr;  ///< borrowed; null discards every event.
};

class ReferenceEngine {
 public:
  explicit ReferenceEngine(ReferenceOptions options);

  /// Periodic task released at offset + k * period.
  rt::TaskHandle add_task(const sched::TaskParams& params, CostFn cost = {});
  rt::TimerHandle add_one_shot_timer(Instant when, TimerHandler handler);
  rt::TimerHandle add_periodic_timer(Instant first, Duration period,
                                     TimerHandler handler);
  void cancel_timer(rt::TimerHandle timer);
  void request_stop(rt::TaskHandle task, rt::StopMode mode,
                    Duration extra_latency = Duration::zero());
  void inject_overhead(Duration amount);

  /// Runs every event dated up to `stop_at` (inclusive).
  void run_until(Instant stop_at);
  void run() { run_until(options_.horizon); }

  [[nodiscard]] Instant now() const { return now_; }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] const rt::TaskStats& stats(rt::TaskHandle task) const;
  [[nodiscard]] rt::JobOutcome job_outcome(rt::TaskHandle task,
                                           std::int64_t job) const;

 private:
  enum class Kind : std::uint8_t {
    kCompletion,
    kOverheadDone,
    kStopEffect,
    kTimer,
    kRelease,
    kDeadlineCheck,
  };

  struct Event {
    Instant time;
    Kind kind;
    std::uint64_t seq;  ///< creation order; the final tie-breaker.
    std::size_t index;  ///< task or timer.
    std::int64_t job;   ///< release / deadline check.
    std::uint64_t gen;  ///< completion / overhead validity.
    rt::StopMode stop_mode;
  };

  struct Task {
    sched::TaskParams params;
    CostFn cost;
    bool stopped = false;
    std::int64_t released = 0;  ///< jobs released so far.
    std::int64_t started = 0;   ///< jobs made current so far.
    bool has_current = false;
    std::int64_t cur = -1;  ///< current job.
    Instant cur_release;
    Duration remaining;
    bool cur_started = false;     ///< the current job has held the CPU.
    std::uint64_t gen = 0;        ///< invalidates stale completions.
    std::uint64_t ready_seq = 0;  ///< FIFO order within a priority.
    std::vector<rt::JobOutcome> outcomes;
    rt::TaskStats stats;
  };

  struct Timer {
    TimerHandler handler;
    Duration period;  ///< zero for one-shot.
    bool cancelled = false;
  };

  enum class Cpu : std::uint8_t { kIdle, kOverhead, kTask };

  /// Queues an event, stamping the next creation sequence number.
  void push(Instant time, Kind kind, std::size_t index, std::int64_t job = -1,
            std::uint64_t gen = 0,
            rt::StopMode stop_mode = rt::StopMode::kTask);
  /// Writes one event dated now to the sink, if there is one.
  void record(trace::EventKind kind, std::size_t task = trace::kNoTask,
              std::int64_t job = trace::kNoJob, std::int64_t detail = 0);
  void advance_to(Instant t);
  void start_next_job(std::size_t task);
  void retire_current_job(std::size_t task, rt::JobOutcome outcome,
                          trace::EventKind kind);
  bool pick_top_task(std::size_t& out) const;
  void preempt_running_job();
  void add_overhead(Duration amount);
  void reschedule();
  void dispatch(const Event& ev);

  ReferenceOptions options_;
  std::vector<Event> events_;  ///< sorted by (time, kind, seq).
  std::vector<Task> tasks_;
  std::vector<Timer> timers_;
  Instant now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_ready_seq_ = 0;
  Cpu cpu_ = Cpu::kIdle;
  std::size_t running_ = 0;  ///< valid when cpu_ == kTask.
  Duration overhead_;        ///< backlog at above-task priority.
  std::uint64_t overhead_gen_ = 0;
  /// Context-switch accounting: the job last holding the CPU, and the
  /// job a pending switch charge was issued for (task, job; -1 = none).
  std::size_t last_task_ = 0;
  std::int64_t last_job_ = -1;
  std::size_t charged_task_ = 0;
  std::int64_t charged_job_ = -1;
};

}  // namespace rtft::ref
