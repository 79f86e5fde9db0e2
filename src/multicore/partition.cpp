#include "multicore/partition.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rtft::multicore {
namespace {

using Core = std::vector<sched::RtaSlot>;

/// Reused by every placement on a thread; grows on first use.
struct Workspace {
  std::vector<std::size_t> order;  ///< view ranks in first-fit visit order.
  std::vector<Core> cores;         ///< primaries of each core.
  std::vector<Core> groups;        ///< [f * cores + j]: j once f failed.
  Core audit;                      ///< survives_any_single_fault's load.
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// The first `n` sets of `sets`, emptied (growing the list if needed).
void reset(std::vector<Core>& sets, std::size_t n) {
  if (sets.size() < n) sets.resize(n);
  for (std::size_t i = 0; i < n; ++i) sets[i].clear();
}

/// First-fit primary assignment under RTA admission, shared by both
/// strategies so their primary phases are identical (and so the
/// fault-aware placement is feasible only when first-fit's is —
/// backup admission can only subtract). Tasks are visited by decreasing
/// utilization, ties by id.
Placement place_primaries(const sched::RtaView& view, std::size_t cores,
                          Workspace& ws) {
  RTFT_EXPECTS(cores >= 1, "placement needs at least one core");
  const sched::TaskSet& ts = *view.set;
  Placement p;
  p.primary.assign(ts.size(), kNoCore);
  p.backup.assign(ts.size(), kNoCore);
  ws.order.resize(ts.size());
  for (std::size_t r = 0; r < ts.size(); ++r) ws.order[r] = r;
  std::sort(ws.order.begin(), ws.order.end(),
            [&](std::size_t a, std::size_t b) {
              const sched::TaskId ia = view.slots[a].id, ib = view.slots[b].id;
              const double ua = ts[ia].utilization(), ub = ts[ib].utilization();
              return ua != ub ? ua > ub : ia < ib;
            });
  reset(ws.cores, cores);
  for (const std::size_t rank : ws.order) {
    const sched::TaskId id = view.slots[rank].id;
    for (std::size_t c = 0; c < cores && p.primary[id] == kNoCore; ++c) {
      if (sched::try_admit(ws.cores[c], view.slots[rank])) p.primary[id] = c;
    }
    if (p.primary[id] == kNoCore) {
      p.reason = "no core can schedule task '" + ts[id].name +
                 "' on top of its first-fit load";
      return p;
    }
  }
  p.feasible = true;
  return p;
}

}  // namespace

Placement Partitioner::place(const sched::TaskSet& ts,
                             std::size_t cores) const {
  const sched::RtaView view(ts);
  return place(view, cores);
}

Placement FirstFitDecreasing::place(const sched::RtaView& view,
                                    std::size_t cores) const {
  Placement p = place_primaries(view, cores, workspace());
  if (p.feasible && cores > 1) {
    // The naive baseline: next core in index order, no capacity check.
    for (sched::TaskId id = 0; id < p.primary.size(); ++id) {
      p.backup[id] = (p.primary[id] + 1) % cores;
    }
  }
  return p;
}

Placement FaultAware::place(const sched::RtaView& view,
                            std::size_t cores) const {
  Workspace& ws = workspace();
  Placement p = place_primaries(view, cores, ws);
  // One core: no fail-over possible, nothing to reserve.
  if (!p.feasible || cores == 1) return p;
  // Backup admission. Under the single-fault hypothesis, core j only
  // ever activates the backups whose primary lives on the one failed
  // core f — so each (f, j) group is admitted independently: j's
  // primaries plus the group plus the candidate. Primaries are final by
  // now and groups only grow, so admitting against the current group
  // covers the final configuration.
  reset(ws.groups, cores * cores);
  for (std::size_t f = 0; f < cores; ++f) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (j != f) ws.groups[f * cores + j] = ws.cores[j];
    }
  }
  for (const std::size_t rank : ws.order) {
    const sched::TaskId id = view.slots[rank].id;
    const std::size_t f = p.primary[id];
    for (std::size_t j = 0; j < cores && p.backup[id] == kNoCore; ++j) {
      // Never co-located with its own primary.
      if (j != f && sched::try_admit(ws.groups[f * cores + j],
                                     view.slots[rank])) {
        p.backup[id] = j;
      }
    }
    if (p.backup[id] == kNoCore) {
      p.feasible = false;
      p.reason = "no core can absorb the backup of task '" +
                 (*view.set)[id].name + "' when core " + std::to_string(f) +
                 " fails";
      return p;
    }
  }
  return p;
}

bool survives_any_single_fault(const sched::TaskSet& ts,
                               const Placement& placement,
                               std::size_t cores) {
  RTFT_EXPECTS(placement.primary.size() == ts.size() &&
                   placement.backup.size() == ts.size(),
               "placement must cover the task set");
  if (!placement.feasible) return false;
  // Every task must actually have a backup for fail-over to exist.
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    if (cores > 1 && placement.backup[id] == kNoCore) return false;
  }
  const sched::RtaView view(ts);
  Core& load = workspace().audit;
  for (std::size_t f = 0; f < cores; ++f) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (j == f) continue;
      // j's primaries plus the backups it activates, in priority order.
      load.clear();
      for (const sched::RtaSlot& slot : view.slots) {
        const std::size_t primary = placement.primary[slot.id];
        if (primary == j ||
            (primary == f && placement.backup[slot.id] == j)) {
          load.push_back(slot);
        }
      }
      if (!sched::all_meet_deadlines(load, {})) return false;
    }
  }
  return true;
}

std::vector<double> primary_utilization(const sched::TaskSet& ts,
                                        const Placement& placement,
                                        std::size_t cores) {
  RTFT_EXPECTS(placement.primary.size() == ts.size(),
               "placement must cover the task set");
  std::vector<double> u(cores, 0.0);
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    const std::size_t c = placement.primary[id];
    if (c != kNoCore && c < cores) u[c] += ts[id].utilization();
  }
  return u;
}

}  // namespace rtft::multicore
