#include "core/treatment.hpp"

#include "common/assert.hpp"
#include "sched/kernel.hpp"

namespace rtft::core {

std::string_view to_string(TreatmentPolicy policy) {
  switch (policy) {
    case TreatmentPolicy::kNoDetection: return "no-detection";
    case TreatmentPolicy::kDetectOnly: return "detect-only";
    case TreatmentPolicy::kInstantStop: return "instant-stop";
    case TreatmentPolicy::kEquitableAllowance: return "equitable-allowance";
    case TreatmentPolicy::kSystemAllowance: return "system-allowance";
    case TreatmentPolicy::kSystemAllowanceSound:
      return "system-allowance-sound";
  }
  return "unknown";
}

TreatmentPolicy treatment_policy_from_string(std::string_view name) {
  if (name == "no-detection") return TreatmentPolicy::kNoDetection;
  if (name == "detect-only") return TreatmentPolicy::kDetectOnly;
  if (name == "instant-stop") return TreatmentPolicy::kInstantStop;
  if (name == "equitable-allowance") {
    return TreatmentPolicy::kEquitableAllowance;
  }
  if (name == "system-allowance") return TreatmentPolicy::kSystemAllowance;
  if (name == "system-allowance-sound") {
    return TreatmentPolicy::kSystemAllowanceSound;
  }
  RTFT_EXPECTS(false,
               "unknown treatment policy '" + std::string(name) + "'");
  return TreatmentPolicy::kNoDetection;  // unreachable
}

TreatmentPlan make_treatment_plan_or_degrade(
    sched::RtaView& view, TreatmentPolicy policy, bool feasible,
    const sched::AllowanceOptions& opts) {
  TreatmentPlan plan;
  plan.policy = policy;
  if (policy == TreatmentPolicy::kNoDetection || !feasible) return plan;

  plan.detects = true;
  plan.stops = policy != TreatmentPolicy::kDetectOnly;

  plan.nominal_wcrt.resize(view.slots.size());
  for (std::size_t k = 0; k < view.slots.size(); ++k) {
    const sched::RtaSlot& slot = view.slots[k];
    const sched::RtaResult rta =
        sched::analyze_slot(view.slots, k, opts.rta, false);
    RTFT_EXPECTS(rta.bounded && rta.wcrt.count() <= slot.deadline,
                 "treatment thresholds need a feasible task set; '" +
                     (*view.set)[slot.id].name + "' is not schedulable");
    plan.nominal_wcrt[slot.id] = rta.wcrt;
  }

  switch (policy) {
    case TreatmentPolicy::kDetectOnly:
    case TreatmentPolicy::kInstantStop:
      plan.thresholds = plan.nominal_wcrt;
      break;
    case TreatmentPolicy::kEquitableAllowance: {
      sched::EquitableAllowance a = sched::equitable_allowance(view, opts);
      RTFT_ASSERT(a.feasible_at_zero, "feasibility checked above");
      plan.allowance = a.allowance;
      plan.thresholds = std::move(a.inflated_wcrt);
      break;
    }
    case TreatmentPolicy::kSystemAllowance:
    case TreatmentPolicy::kSystemAllowanceSound: {
      sched::SystemAllowance s = sched::system_allowance(*view.set, opts);
      RTFT_ASSERT(s.feasible_at_zero, "feasibility checked above");
      plan.allowance = s.budget;
      plan.thresholds = policy == TreatmentPolicy::kSystemAllowance
                            ? std::move(s.stop_thresholds)
                            : std::move(s.sound_stop_thresholds);
      break;
    }
    case TreatmentPolicy::kNoDetection:
      break;  // handled above
  }
  return plan;
}

TreatmentPlan make_treatment_plan(const sched::TaskSet& ts,
                                  TreatmentPolicy policy,
                                  const sched::AllowanceOptions& opts) {
  return make_treatment_plan_or_degrade(ts, policy, true, opts);
}

TreatmentPlan make_treatment_plan_or_degrade(
    const sched::TaskSet& ts, TreatmentPolicy policy, bool feasible,
    const sched::AllowanceOptions& opts) {
  sched::RtaView view(ts);
  return make_treatment_plan_or_degrade(view, policy, feasible, opts);
}

}  // namespace rtft::core
