// Partitioned multiprocessor placement with task-level primary/backup
// assignment (Persya & Nair, "Fault Tolerance in Real Time
// Multiprocessors — Embedded Systems", PAPERS.md).
//
// The source paper's model is single-core; this seam opens the obvious
// scale-out: every task gets a *primary* core and (when the fleet has
// more than one core) a *backup* core, with the fault hypothesis of a
// single core failing mid-run. A placement is the pure, deterministic
// map TaskId -> (primary, backup); the MultiEngine (multi_engine.hpp)
// executes it and performs the fail-over.
//
// Two strategies ship behind the Partitioner seam:
//
//   * FirstFitDecreasing — the classical bin-packing baseline. Primaries
//     are placed first-fit by decreasing utilization under RTA
//     admission; the backup is simply the next core in index order,
//     with NO capacity reserved for it. Cheap, and fine until a core
//     actually dies: the backup core may be unable to absorb the load.
//   * FaultAware — same primary phase, but a backup is admitted on core
//     j only if RTA proves j can run its own primaries *plus* every
//     backup it would have to activate when that task's primary core
//     fails. Placements it accepts therefore survive any single core
//     failure by construction (single-fault hypothesis: backups whose
//     primaries live on *different* cores never run concurrently, so
//     each failed-core group is admitted independently).
//
// Both strategies never co-locate a task with its own backup
// (primary on core i ==> backup on core j != i).
//
// Admission is incremental (sched::try_admit): adding a task to a core
// re-checks only the tasks at or below its priority, warm-started from
// their current response times. The per-core sets live in a per-thread
// workspace that grows on first use, so partitioners stay stateless.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sched/kernel.hpp"
#include "sched/task.hpp"

namespace rtft::multicore {

/// "No core": the backup slot of a single-core placement, and the
/// primary/backup of a task the partitioner could not place.
inline constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

/// A primary/backup assignment for every task of a set.
struct Placement {
  bool feasible = false;  ///< every task received the slots it needs.
  std::string reason;     ///< why not, when !feasible.
  /// TaskId -> primary core (kNoCore only when !feasible).
  std::vector<std::size_t> primary;
  /// TaskId -> backup core; kNoCore on a single core (no fail-over
  /// possible) or when no backup could be admitted.
  std::vector<std::size_t> backup;
};

/// Placement-strategy seam. Implementations must be deterministic pure
/// functions of (task set, core count) — placements feed the sweep's
/// bit-stable fingerprint.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Places `ts` (builds its flat view, sched/kernel.hpp).
  [[nodiscard]] Placement place(const sched::TaskSet& ts,
                                std::size_t cores) const;
  /// Places the task set behind a prebuilt view at nominal costs.
  [[nodiscard]] virtual Placement place(const sched::RtaView& view,
                                        std::size_t cores) const = 0;
  /// Stable strategy name for reports and CLI round-trips.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// First-fit by decreasing utilization under RTA admission for the
/// primaries; backups take the next core in index order with no
/// capacity check (the deliberate classical baseline).
class FirstFitDecreasing final : public Partitioner {
 public:
  using Partitioner::place;
  [[nodiscard]] Placement place(const sched::RtaView& view,
                                std::size_t cores) const override;
  [[nodiscard]] const char* name() const override { return "first-fit"; }
};

/// Same primary phase as FirstFitDecreasing, but every backup is
/// admitted by RTA against the worst post-failure load of its core:
/// the core's primaries plus every backup already accepted there whose
/// primary shares the failing core.
class FaultAware final : public Partitioner {
 public:
  using Partitioner::place;
  [[nodiscard]] Placement place(const sched::RtaView& view,
                                std::size_t cores) const override;
  [[nodiscard]] const char* name() const override { return "fault-aware"; }
};

/// True iff, for every core f that could fail, every other core j still
/// passes RTA running its primaries plus the backups it must activate
/// (tasks with primary == f and backup == j). The global soundness
/// check FaultAware guarantees by construction; exposed for tests and
/// for auditing third-party Partitioner implementations.
[[nodiscard]] bool survives_any_single_fault(const sched::TaskSet& ts,
                                             const Placement& placement,
                                             std::size_t cores);

/// Total primary utilization per core (index -> sum of Ci/Ti). The
/// fail-over victim selector in the sweep kills the busiest core.
[[nodiscard]] std::vector<double> primary_utilization(
    const sched::TaskSet& ts, const Placement& placement, std::size_t cores);

}  // namespace rtft::multicore
