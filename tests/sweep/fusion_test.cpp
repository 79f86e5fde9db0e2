// The production ScenarioRunner against the unfused reference runner
// (tests/support/reference_runner.hpp). The runner reads the
// detector-loaded verdict off the nominal run when the detectors neither
// stop nor cost CPU, and skips the detector run when the plan has none;
// every verdict field must still equal the plain three-run sequence's.
#include <gtest/gtest.h>

#include <string>

#include "support/reference_runner.hpp"
#include "sweep/fields.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep {
namespace {

constexpr std::uint64_t kScenarios = 64;

struct Coverage {
  int infeasible = 0;  ///< degraded plans: the skipped detector run.
  int fused = 0;       ///< feasible with free, non-stopping detectors.
  int fired = 0;       ///< verdicts whose detectors reported faults.
};

Coverage expect_runner_matches_reference(const SweepOptions& opts,
                                         const char* grid) {
  Coverage seen;
  ScenarioRunner runner(opts);  // reused across scenarios, as in a sweep.
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    const ScenarioVerdict got = runner.run(spec);
    const ScenarioVerdict want = ref::run_scenario_unfused(spec, opts);
    fields::for_each(fields::kVerdict, [&](const auto& row) {
      EXPECT_EQ(got.*row.member, want.*row.member)
          << grid << " scenario " << i << " field " << row.key;
    });
    if (!want.rta_schedulable) ++seen.infeasible;
    if (want.rta_schedulable && !spec.detector_cost.is_positive()) {
      ++seen.fused;
    }
    if (want.detector_faults > 0) ++seen.fired;
  }
  return seen;
}

TEST(RunFusion, DefaultGridMatchesTheUnfusedSequence) {
  SweepOptions opts;
  opts.scenario_count = kScenarios;
  opts.grid.utilizations = {0.7, 0.9, 1.05};
  const Coverage seen = expect_runner_matches_reference(opts, "default");
  EXPECT_GT(seen.infeasible, 0);
  EXPECT_GT(seen.fused, 0);
}

TEST(RunFusion, HalfMillisecondQuantumFiresRoundedThresholds) {
  SweepOptions opts;
  opts.scenario_count = kScenarios;
  opts.base_seed = 7;
  opts.grid.utilizations = {0.8, 0.95};
  opts.grid.quantizer_resolutions = {Duration::us(500)};
  const Coverage seen = expect_runner_matches_reference(opts, "quantum");
  EXPECT_GT(seen.fired, 0);  // round-to-nearest fires early detectors.
}

TEST(RunFusion, DetectorCostAndOtherPoliciesStayUnfused) {
  for (const core::TreatmentPolicy policy :
       {core::TreatmentPolicy::kNoDetection,
        core::TreatmentPolicy::kDetectOnly,
        core::TreatmentPolicy::kEquitableAllowance}) {
    SweepOptions opts;
    opts.scenario_count = kScenarios;
    opts.base_seed = 11;
    opts.detector_policy = policy;
    opts.grid.detector_costs = {Duration::zero(), Duration::us(300)};
    opts.grid.quantizer_resolutions = {Duration::ms(1), Duration::us(500)};
    (void)expect_runner_matches_reference(
        opts, std::string(core::to_string(policy)).c_str());
  }
}

TEST(RunFusion, FailoverGridMatchesTheUnfusedSequence) {
  SweepOptions opts;
  opts.scenario_count = kScenarios;
  opts.grid.task_counts = {8, 16, 24};
  opts.grid.utilizations = {0.9, 1.4, 1.8};
  opts.grid.core_counts = {2, 4};
  opts.grid.stop_poll_latencies = {Duration::zero(), Duration::us(2000),
                                   Duration::us(20000)};
  opts.detector_policy = core::TreatmentPolicy::kInstantStop;
  opts.core_fault_fraction = 0.5;
  (void)expect_runner_matches_reference(opts, "fail-over");
}

}  // namespace
}  // namespace rtft::sweep
