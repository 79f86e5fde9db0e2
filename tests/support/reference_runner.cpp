#include "support/reference_runner.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "multicore/multi_engine.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "support/rta_reference.hpp"
#include "sweep/generators.hpp"

namespace rtft::ref {
namespace {

using core::TreatmentPolicy;

Duration max_period(const sched::TaskSet& ts) {
  Duration m = Duration::zero();
  for (const auto& t : ts) m = std::max(m, t.period);
  return m;
}

/// make_treatment_plan_or_degrade over the reference analysis.
core::TreatmentPlan plan_for(const sched::TaskSet& ts, TreatmentPolicy policy,
                             bool feasible,
                             const sched::AllowanceOptions& aopts) {
  core::TreatmentPlan plan;
  plan.policy = policy;
  if (policy == TreatmentPolicy::kNoDetection || !feasible) return plan;
  plan.detects = true;
  plan.stops = policy != TreatmentPolicy::kDetectOnly;
  for (sched::TaskId i = 0; i < ts.size(); ++i) {
    plan.nominal_wcrt.push_back(ref::response_time(ts, i, aopts.rta).wcrt);
  }
  switch (policy) {
    case TreatmentPolicy::kEquitableAllowance: {
      const sched::EquitableAllowance a = ref::equitable_allowance(ts, aopts);
      plan.allowance = a.allowance;
      plan.thresholds = a.inflated_wcrt;
      break;
    }
    case TreatmentPolicy::kSystemAllowance:
    case TreatmentPolicy::kSystemAllowanceSound: {
      const sched::SystemAllowance s = ref::system_allowance(ts, aopts);
      plan.allowance = s.budget;
      plan.thresholds = policy == TreatmentPolicy::kSystemAllowance
                            ? s.stop_thresholds
                            : s.sound_stop_thresholds;
      break;
    }
    default:
      plan.thresholds = plan.nominal_wcrt;
      break;
  }
  return plan;
}

struct Run {
  explicit Run(const rt::EngineOptions& eopts) : engine(eopts) {}
  rt::Engine engine;
  std::vector<rt::TaskHandle> handles;
  std::int64_t misses() const {
    std::int64_t m = 0;
    for (const rt::TaskHandle h : handles) m += engine.stats(h).missed;
    return m;
  }
};

}  // namespace

sweep::ScenarioVerdict run_scenario_unfused(const sweep::ScenarioSpec& spec,
                                            const sweep::SweepOptions& opts) {
  const sched::TaskSet ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
  const Duration horizon = max_period(ts) * opts.horizon_periods;
  const sched::TaskId top = ts.by_priority_desc().front();

  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;
  eopts.stop_poll_latency = spec.stop_poll_latency;
  eopts.sink_mode = trace::SinkMode::kStaticNull;
  const auto arm = [&](Run& run, std::optional<sched::TaskId> faulty,
                       Duration extra) {
    for (sched::TaskId id = 0; id < ts.size(); ++id) {
      run.handles.push_back(run.engine.add_task(
          ts[id], faulty && *faulty == id
                      ? rt::CostSpec::fixed_overrun(0, extra)
                      : rt::CostSpec::nominal()));
    }
  };

  sweep::ScenarioVerdict v;
  v.index = spec.index;
  v.seed = spec.seed;
  v.cell = spec.cell;
  v.task_count = ts.size();
  v.target_utilization = spec.tasks.total_utilization;
  v.actual_utilization = ts.utilization();
  v.detector_cost = spec.detector_cost;
  v.stop_poll_latency = spec.stop_poll_latency;
  v.cores = spec.cores;
  v.quantum = spec.quantum;

  v.rta_schedulable = ref::is_feasible(ts);
  {
    Run nominal(eopts);
    arm(nominal, std::nullopt, Duration::zero());
    nominal.engine.run();
    v.nominal_misses = nominal.misses();
    v.engine_clean = v.nominal_misses == 0;
    v.agreement = !v.rta_schedulable || v.engine_clean;
  }

  sched::AllowanceOptions aopts;
  aopts.granularity = opts.allowance_granularity;
  const sched::EquitableAllowance ea = ref::equitable_allowance(ts, aopts);
  v.allowance_feasible = ea.feasible_at_zero;
  if (ea.feasible_at_zero) {
    v.allowance = ea.allowance;
    Run faulty(eopts);
    arm(faulty, top, ea.allowance);
    faulty.engine.run();
    v.allowance_honored = faulty.misses() == 0;
  }

  core::TreatmentPlan plan =
      plan_for(ts, opts.detector_policy, v.rta_schedulable, aopts);
  Run loaded(eopts);
  if (plan.detects && plan.stops) {
    arm(loaded, top, max_period(ts));
  } else {
    arm(loaded, std::nullopt, Duration::zero());
  }
  std::optional<core::DetectorBank> bank;
  if (plan.detects) {
    core::DetectorConfig dcfg;
    dcfg.quantizer =
        spec.quantum == Duration::ms(1)
            ? rt::Quantizer{Duration::ms(1), rt::Rounding::kNone}
            : rt::Quantizer{spec.quantum, rt::Rounding::kNearest};
    dcfg.fire_cost = spec.detector_cost;
    core::DetectorBank::FaultHandler handler;
    if (plan.stops) {
      handler = [](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
        e.request_stop(task, rt::StopMode::kTask);
      };
    }
    bank.emplace(loaded.engine, loaded.handles, plan.thresholds, dcfg,
                 std::move(handler));
  }
  loaded.engine.run();
  v.detector_clean = loaded.misses() == 0;
  v.detector_faults = bank ? bank->total_faults() : 0;

  if (spec.cores > 1) {
    rt::EngineOptions mopts;
    mopts.horizon = Instant::epoch() + horizon;
    mopts.sink_mode = trace::SinkMode::kStaticNull;
    const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
        opts.core_fault_fraction * static_cast<double>(horizon.count())));
    const auto run_one = [&](const multicore::Placement& placement,
                             bool& placed, bool& clean,
                             std::int64_t& missed_tasks,
                             std::int64_t& lost_jobs) {
      placed = placement.feasible;
      if (!placement.feasible) return;
      multicore::MultiEngine fleet;
      fleet.reset(spec.cores, mopts);
      fleet.add_placed(ts, placement);
      multicore::CoreFaultPlan fault;
      if (fault_after.is_positive() && fault_after < horizon) {
        const std::vector<double> load =
            multicore::primary_utilization(ts, placement, spec.cores);
        std::size_t victim = 0;
        for (std::size_t c = 1; c < load.size(); ++c) {
          if (load[c] > load[victim]) victim = c;
        }
        fault.core = victim;
        fault.at = Instant::epoch() + fault_after;
      }
      const multicore::MultiRunReport report = fleet.run_with_fault(fault);
      clean = report.failover_clean;
      missed_tasks = report.missed_tasks;
      lost_jobs = report.total_lost_jobs;
    };
    if (opts.partitioner != sweep::PartitionerMode::kFaultAware) {
      run_one(ref::first_fit_place(ts, spec.cores), v.ff_placement_feasible,
              v.ff_failover_clean, v.ff_missed_tasks, v.ff_lost_jobs);
    }
    if (opts.partitioner != sweep::PartitionerMode::kFirstFit) {
      run_one(ref::fault_aware_place(ts, spec.cores), v.fa_placement_feasible,
              v.fa_failover_clean, v.fa_missed_tasks, v.fa_lost_jobs);
    }
  }
  return v;
}

}  // namespace rtft::ref
