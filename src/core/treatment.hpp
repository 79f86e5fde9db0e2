// Fault treatments (paper §4).
//
// The paper compares three ways of handling a detected WCRT overrun, plus
// the two experimental baselines of §6:
//
//   kNoDetection        — Figure 3: nothing installed.
//   kDetectOnly         — Figure 4: detectors report, nobody acts.
//   kInstantStop        — Figure 5 / §4.1: stop at the nominal WCRT.
//                         "very pessimistic" — a fault may be harmless.
//   kEquitableAllowance — Figure 6 / §4.2: every task is granted the same
//                         allowance A (the largest value addable to all
//                         costs keeping the system feasible); stop at the
//                         WCRT recomputed with inflated costs (Table 3).
//   kSystemAllowance    — Figure 7 / §4.3: the whole spare budget B goes
//                         to the first faulty task; stop thresholds are
//                         WCRTi + B, which automatically hands any
//                         unconsumed remainder to later faulty tasks.
#pragma once

#include <string_view>
#include <vector>

#include "sched/allowance.hpp"
#include "sched/task.hpp"

namespace rtft::core {

enum class TreatmentPolicy {
  kNoDetection,
  kDetectOnly,
  kInstantStop,
  kEquitableAllowance,
  kSystemAllowance,
  /// Extension (not in the paper): system allowance with *sound* stop
  /// thresholds — each task's WCRT recomputed with the beneficiary's
  /// cost inflated by B instead of the paper's WCRTi + B shift. The
  /// paper's shift under-estimates inherited lateness when the extended
  /// window catches extra higher-priority releases and can then stop a
  /// non-faulty task; the sound variant provably never does. Both agree
  /// on the paper's Table 2 system.
  kSystemAllowanceSound,
};

/// Stable identifier ("no-detection", "instant-stop", ...) for configs,
/// logs and reports.
[[nodiscard]] std::string_view to_string(TreatmentPolicy policy);
/// Inverse of to_string; throws ContractViolation for unknown names.
[[nodiscard]] TreatmentPolicy treatment_policy_from_string(
    std::string_view name);

/// Everything the runtime needs to enact a policy on a task set.
struct TreatmentPlan {
  TreatmentPolicy policy = TreatmentPolicy::kNoDetection;
  /// Whether detectors are installed at all.
  bool detects = false;
  /// Whether a detected fault stops the task.
  bool stops = false;
  /// Raw per-task stop/detection thresholds (TaskId order); empty for
  /// kNoDetection.
  std::vector<Duration> thresholds;
  /// Nominal WCRTs (TaskId order), for reporting.
  std::vector<Duration> nominal_wcrt;
  /// The allowance behind the thresholds: A for kEquitableAllowance,
  /// B for kSystemAllowance, zero otherwise.
  Duration allowance;
};

/// Computes the plan for `policy` on `ts`. The task set must be feasible
/// for the threshold-bearing policies (throws ContractViolation
/// otherwise, since thresholds would be meaningless).
[[nodiscard]] TreatmentPlan make_treatment_plan(
    const sched::TaskSet& ts, TreatmentPolicy policy,
    const sched::AllowanceOptions& opts = {});

/// Like make_treatment_plan, but degrades to a detection-less plan (the
/// policy is kept for reporting) instead of throwing when the set is
/// infeasible. `feasible` is the caller's already-computed feasibility
/// verdict for `ts` — both FaultTolerantSystem and the sweep have it in
/// hand, and sharing the rule here keeps their degradation identical.
[[nodiscard]] TreatmentPlan make_treatment_plan_or_degrade(
    const sched::TaskSet& ts, TreatmentPolicy policy, bool feasible,
    const sched::AllowanceOptions& opts = {});
/// Same over a prebuilt view (sched/kernel.hpp), warm-started from its
/// job-0 seeds; the view returns to nominal costs.
[[nodiscard]] TreatmentPlan make_treatment_plan_or_degrade(
    sched::RtaView& view, TreatmentPolicy policy, bool feasible,
    const sched::AllowanceOptions& opts = {});

}  // namespace rtft::core
