// Pluggable trace sinks — observation decoupled from execution.
//
// The paper's measurement discipline (§5) is that observing a run must
// not perturb it: events are buffered in memory and flushed only after
// the run. The Sink interface generalizes that discipline into
// pay-for-what-you-use observation: the engine (and everything layered
// on it — detectors, treatments, the wall-clock executor) writes events
// through a Sink pointer and never knows what, if anything, is kept.
//
//   NullSink     — discards everything; a run costs zero observation.
//   CountingSink — per-task counters only (what sweep verdicts need);
//                  O(tasks) memory however long the run.
//   Recorder     — the full-fidelity event buffer (trace/recorder.hpp),
//                  for charts, logs, validation and golden tests.
//
// The virtual seam above is the *general* observation path. Sweep-scale
// runs select a compile-time mode instead (SinkMode below): the engine
// dispatches on a plain enum in its inner loop — no virtual call per
// event — and counting becomes batched: events accumulate in an
// engine-local CounterBank and flush into the configured CountingSink
// at run boundaries via absorb(). Both paths produce identical counters
// (tests/runtime/observation_equivalence_test.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/events.hpp"

namespace rtft::trace {

/// Number of EventKind enumerators (kIdleEnd is last).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kIdleEnd) + 1;

/// How an engine observes its own event stream.
enum class SinkMode : std::uint8_t {
  /// Every event goes through the runtime-polymorphic Sink* seam —
  /// required for Recorder (full traces), FtSystem composition and the
  /// wall-clock executor.
  kVirtual,
  /// Events are discarded by a branch on this enum: zero virtual calls
  /// and zero counter writes per event.
  kStaticNull,
  /// Events accumulate in an engine-local CounterBank (no virtual call
  /// per event) and flush into EngineOptions::counting_sink when a
  /// run() / run_until() returns.
  kStaticCounting,
};

/// Where trace events go. Implementations must tolerate any well-formed
/// event stream; record() is called on the execution hot path, so it
/// must not perform I/O and should not allocate in steady state.
class Sink {
 public:
  virtual ~Sink() = default;

  virtual void record(const TraceEvent& event) = 0;

  /// Convenience: build + record.
  void record(Instant time, EventKind kind, std::uint32_t task = kNoTask,
              std::int64_t job = kNoJob, std::int64_t detail = 0) {
    record(TraceEvent{time, job, detail, task, kind});
  }
};

/// Discards every event. The engine's default when no sink is supplied.
class NullSink final : public Sink {
 public:
  using Sink::record;
  void record(const TraceEvent&) override {}

  /// Shared stateless instance.
  static NullSink& instance();
};

/// Per-task counters maintained by a CounterBank — the same facts an
/// engine's TaskStats carries, derived purely from the event stream.
struct TaskCounters {
  std::int64_t released = 0;
  std::int64_t started = 0;         ///< kJobStart (first CPU acquisition).
  std::int64_t completed = 0;
  std::int64_t missed = 0;
  std::int64_t aborted = 0;
  std::int64_t preemptions = 0;
  std::int64_t detector_fires = 0;
  std::int64_t faults_detected = 0;
  bool stopped = false;
  Duration max_response;            ///< over kJobEnd events.
  Duration last_response;
};

/// The flat counting core shared by CountingSink (per-event, virtual
/// seam) and the engine's batched static-counting mode (accumulate
/// locally, absorb at run boundaries). add() is non-virtual and inline:
/// it is *the* per-event cost of counted observation.
class CounterBank {
 public:
  /// Folds one event into the bank. Identical semantics to the classic
  /// CountingSink::record.
  void add(const TraceEvent& event) {
    kind_totals_[static_cast<std::size_t>(event.kind)]++;
    if (event.task == kNoTask) return;
    const auto task = static_cast<std::size_t>(event.task);
    if (task >= tasks_.size()) tasks_.resize(task + 1);
    TaskCounters& c = tasks_[task];
    switch (event.kind) {
      case EventKind::kJobRelease: c.released++; break;
      case EventKind::kJobStart: c.started++; break;
      case EventKind::kJobEnd: {
        c.completed++;
        const Duration response = Duration::ns(event.detail);
        c.last_response = response;
        if (response > c.max_response) c.max_response = response;
        break;
      }
      case EventKind::kDeadlineMiss: c.missed++; break;
      case EventKind::kJobAborted: c.aborted++; break;
      case EventKind::kJobPreempted: c.preemptions++; break;
      case EventKind::kDetectorFire: c.detector_fires++; break;
      case EventKind::kFaultDetected: c.faults_detected++; break;
      case EventKind::kTaskStopped: c.stopped = true; break;
      default: break;  // resumed/timers/idle/etc. carry no counter.
    }
  }

  /// Merges another bank into this one. Counts add; `stopped` ors;
  /// `max_response` takes the max; `last_response` is overridden only
  /// when `delta` completed at least one job of the task — so merging
  /// the per-run_until() deltas of a split run leaves exactly the
  /// counters one contiguous bank would hold.
  void merge(const CounterBank& delta);

  /// Forgets everything; keeps allocated capacity for reuse.
  void clear();

  /// Pre-sizes per-task storage (capacity hint; growing later is safe).
  void reserve(std::size_t tasks) { tasks_.reserve(tasks); }

  /// Counters for one task (zeroes if the task never appeared).
  [[nodiscard]] const TaskCounters& counters(std::size_t task) const;
  /// One past the largest task id seen since the last clear().
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  /// Total events of one kind, across tasks and taskless events.
  [[nodiscard]] std::int64_t total(EventKind kind) const {
    return kind_totals_[static_cast<std::size_t>(kind)];
  }

 private:
  std::vector<TaskCounters> tasks_;
  std::int64_t kind_totals_[kEventKindCount] = {};
};

/// Maintains only per-task counters: constant work per event, O(tasks)
/// memory for a run of any length. This is what a scenario sweep needs —
/// verdict counters without the full-trace cost. In the engine's
/// batched mode the per-event add() happens in an engine-local bank and
/// lands here through absorb() instead.
class CountingSink final : public Sink {
 public:
  using Sink::record;
  void record(const TraceEvent& event) override { bank_.add(event); }

  /// Merges a batch of counters accumulated elsewhere (the engine's
  /// run-boundary flush); see CounterBank::merge for the semantics.
  void absorb(const CounterBank& delta) { bank_.merge(delta); }

  /// Forgets everything; keeps allocated capacity for reuse.
  void reset() { bank_.clear(); }

  /// Counters for one task (zeroes if the task never appeared).
  [[nodiscard]] const TaskCounters& counters(std::size_t task) const {
    return bank_.counters(task);
  }
  /// One past the largest task id seen since the last reset().
  [[nodiscard]] std::size_t task_count() const { return bank_.task_count(); }
  /// Total events of one kind, across tasks and taskless events.
  [[nodiscard]] std::int64_t total(EventKind kind) const {
    return bank_.total(kind);
  }

 private:
  CounterBank bank_;
};

}  // namespace rtft::trace
