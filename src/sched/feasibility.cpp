#include "sched/feasibility.hpp"

#include <sstream>

#include "common/strings.hpp"
#include "sched/kernel.hpp"

namespace rtft::sched {

FeasibilityReport analyze(RtaView& view, const RtaOptions& opts) {
  FeasibilityReport report;
  report.load = load_test(*view.set);
  report.utilization = view.set->utilization();
  report.tasks.resize(view.slots.size());
  bool all_ok = true;
  for (std::size_t k = 0; k < view.slots.size(); ++k) {
    RtaSlot& slot = view.slots[k];
    const RtaResult rta = analyze_slot(view.slots, k, opts, false);
    if (rta.jobs_examined > 0) slot.first = slot.next_first;
    report.tasks[slot.id] = {slot.id, rta.bounded, rta.wcrt,
                             rta.bounded && rta.wcrt.count() <= slot.deadline};
    all_ok = all_ok && report.tasks[slot.id].meets_deadline;
  }
  report.feasible = all_ok && report.load != LoadVerdict::kAboveOne;
  return report;
}

FeasibilityReport analyze(const TaskSet& ts, const RtaOptions& opts) {
  RtaView view(ts);
  return analyze(view, opts);
}

bool is_feasible(RtaView& view, const RtaOptions& opts) {
  // Over-unit load makes the lowest-priority level diverge, so the
  // per-task checks already cover the load test.
  return all_meet_deadlines(view.slots, opts);
}

bool is_feasible(const TaskSet& ts, const RtaOptions& opts) {
  RtaView view(ts);
  return is_feasible(view, opts);
}

std::string FeasibilityReport::summary(const TaskSet& ts) const {
  std::ostringstream out;
  out << "load U = " << format_fixed(utilization, 4);
  switch (load) {
    case LoadVerdict::kAboveOne:
      out << " (> 1: infeasible)";
      break;
    case LoadVerdict::kExactlyOne:
      out << " (= 1: boundary)";
      break;
    case LoadVerdict::kBelowOne:
      out << " (< 1)";
      break;
  }
  out << '\n';
  for (const TaskVerdict& v : tasks) {
    out << "  " << pad_right(ts[v.id].name, 12) << " WCRT=";
    if (v.bounded) {
      out << pad_left(to_string(v.wcrt), 10) << "  D="
          << pad_left(to_string(ts[v.id].deadline), 10) << "  "
          << (v.meets_deadline ? "ok" : "MISS");
    } else {
      out << " unbounded  MISS";
    }
    out << '\n';
  }
  out << (feasible ? "FEASIBLE" : "NOT FEASIBLE");
  return out.str();
}

bool FeasibilityAnalysis::add(const TaskParams& params) {
  TaskSet candidate = set_;
  candidate.add(params);
  if (!is_feasible(candidate, opts_)) return false;
  set_ = std::move(candidate);
  return true;
}

bool FeasibilityAnalysis::remove(std::string_view name) {
  if (!set_.contains(name)) return false;
  set_ = set_.without(set_.find(name));
  return true;
}

void FeasibilityAnalysis::add_unchecked(const TaskParams& params) {
  set_.add(params);
}

}  // namespace rtft::sched
