// Cross-validation of the two halves of the library: the closed-form
// admission-control analysis (sched/) against the executable semantics of
// the virtual-time engine (runtime/ + core/). Each property here is a
// theorem of fixed-priority scheduling; a failure means one of the two
// sides is wrong.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/ft_system.hpp"
#include "core/paper.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/kernel.hpp"
#include "sched/response_time.hpp"
#include "support/random_sets.hpp"

namespace rtft {
namespace {

using core::FaultPlan;
using core::FaultTolerantSystem;
using core::FtSystemConfig;
using core::RunReport;
using core::TreatmentPolicy;
using testsupport::make_random_task_set;
using namespace rtft::literals;

/// A random *feasible* constrained-deadline (D <= T) task set, or nullopt
/// if the seed's draw is infeasible.
std::optional<sched::TaskSet> feasible_set(std::uint64_t seed,
                                           double utilization) {
  Rng rng(seed);
  RandomTaskSetSpec spec;
  spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 4));
  spec.total_utilization = utilization;
  spec.min_period = Duration::ms(5);
  spec.max_period = Duration::ms(200);
  const sched::TaskSet ts = make_random_task_set(rng, spec);
  if (!sched::is_feasible(ts)) return std::nullopt;
  return ts;
}

Duration horizon_for(const sched::TaskSet& ts) {
  Duration max_period = Duration::zero();
  for (const auto& t : ts) max_period = std::max(max_period, t.period);
  return max_period * 2;
}

class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// Critical instant: with synchronous release, the first job of every task
// in a feasible D<=T system experiences exactly the analytic WCRT.
// ---------------------------------------------------------------------------

TEST_P(CrossValidation, FirstJobResponseEqualsAnalyticWcrt) {
  const auto ts = feasible_set(GetParam(), 0.7);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  trace::Recorder rec;
  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + horizon_for(*ts);
  opts.sink = &rec;
  rt::Engine eng(opts);
  std::vector<rt::TaskHandle> handles;
  for (const auto& t : *ts) handles.push_back(eng.add_task(t));
  eng.run();

  for (sched::TaskId i = 0; i < ts->size(); ++i) {
    const sched::RtaResult rta = sched::response_time(*ts, i);
    ASSERT_TRUE(rta.bounded);
    // First job completed (horizon covers it: wcrt <= D <= T < horizon).
    ASSERT_TRUE(eng.job_completed(handles[i], 0)) << (*ts)[i].name;
    Duration first_response;
    for (const auto& e : rec.events()) {
      if (e.kind == trace::EventKind::kJobEnd &&
          e.task == static_cast<std::uint32_t>(handles[i]) && e.job == 0) {
        first_response = Duration::ns(e.detail);
      }
    }
    EXPECT_EQ(first_response, rta.wcrt) << (*ts)[i].name;
  }
}

// ---------------------------------------------------------------------------
// Soundness: no simulated response ever exceeds the analytic WCRT, over a
// longer window and regardless of job index.
// ---------------------------------------------------------------------------

TEST_P(CrossValidation, NoResponseExceedsAnalyticWcrt) {
  const auto ts = feasible_set(GetParam() ^ 0x9999, 0.8);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + horizon_for(*ts) * 4;
  rt::Engine eng(opts);
  std::vector<rt::TaskHandle> handles;
  for (const auto& t : *ts) handles.push_back(eng.add_task(t));
  eng.run();

  for (sched::TaskId i = 0; i < ts->size(); ++i) {
    const sched::RtaResult rta = sched::response_time(*ts, i);
    EXPECT_LE(eng.stats(handles[i]).max_response, rta.wcrt)
        << (*ts)[i].name;
    EXPECT_EQ(eng.stats(handles[i]).missed, 0) << (*ts)[i].name;
  }
}

// ---------------------------------------------------------------------------
// Detector hygiene: a nominal run never trips a detector (paper §3 — the
// detection mechanism must be transparent for a fault-free system).
// ---------------------------------------------------------------------------

TEST_P(CrossValidation, NominalRunTripsNoDetector) {
  const auto ts = feasible_set(GetParam() ^ 0xdead, 0.75);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  FtSystemConfig cfg;
  cfg.tasks = *ts;
  cfg.policy = TreatmentPolicy::kInstantStop;
  cfg.horizon = horizon_for(*ts) * 4;
  cfg.detector.quantizer.mode = rt::Rounding::kNone;  // exact thresholds
  FaultTolerantSystem sys(std::move(cfg));
  const RunReport report = sys.run();
  ASSERT_TRUE(report.executed);
  for (const auto& t : report.tasks) {
    EXPECT_EQ(t.faults_detected, 0) << t.name;
    EXPECT_FALSE(t.stats.stopped) << t.name;
    EXPECT_EQ(t.stats.missed, 0) << t.name;
  }
}

// ---------------------------------------------------------------------------
// The paper's design claim (§4.2): an overrun within the equitable
// allowance A, injected into the critical-instant job of ANY task,
// causes no deadline miss and no stop anywhere.
// ---------------------------------------------------------------------------

TEST_P(CrossValidation, OverrunWithinEquitableAllowanceIsHarmless) {
  const auto ts = feasible_set(GetParam() ^ 0xa110, 0.6);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  const sched::EquitableAllowance a = sched::equitable_allowance(*ts);
  ASSERT_TRUE(a.feasible_at_zero);
  if (a.allowance.is_zero()) GTEST_SKIP() << "no slack to play with";

  Rng rng(GetParam());
  const auto victim = static_cast<sched::TaskId>(
      rng.next_in(0, static_cast<std::int64_t>(ts->size()) - 1));

  FtSystemConfig cfg;
  cfg.tasks = *ts;
  cfg.policy = TreatmentPolicy::kEquitableAllowance;
  cfg.horizon = horizon_for(*ts) * 4;
  cfg.detector.quantizer.mode = rt::Rounding::kNone;
  FaultPlan faults;
  faults.add_overrun((*ts)[victim].name, 0, a.allowance);  // full budget
  FaultTolerantSystem sys(std::move(cfg), std::move(faults));
  const RunReport report = sys.run();
  ASSERT_TRUE(report.executed);
  EXPECT_EQ(report.total_misses(), 0);
  for (const auto& t : report.tasks) EXPECT_FALSE(t.stats.stopped);
}

// ---------------------------------------------------------------------------
// Extension policy soundness: under kSystemAllowanceSound, an overrun of
// the full budget B on the beneficiary harms nobody, and an overrun
// beyond B stops exactly the faulty task at exactly its threshold.
// ---------------------------------------------------------------------------

TEST_P(CrossValidation, SystemBudgetOnBeneficiaryIsHarmlessUnderSoundPlan) {
  const auto ts = feasible_set(GetParam() ^ 0xb0b0, 0.6);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  const sched::SystemAllowance s = sched::system_allowance(*ts);
  ASSERT_TRUE(s.feasible_at_zero);
  if (s.budget.is_zero()) GTEST_SKIP() << "no slack to play with";

  FtSystemConfig cfg;
  cfg.tasks = *ts;
  cfg.policy = TreatmentPolicy::kSystemAllowanceSound;
  cfg.horizon = horizon_for(*ts) * 4;
  cfg.detector.quantizer.mode = rt::Rounding::kNone;
  FaultPlan faults;
  faults.add_overrun((*ts)[s.beneficiary].name, 0, s.budget);
  FaultTolerantSystem sys(std::move(cfg), std::move(faults));
  const RunReport report = sys.run();
  ASSERT_TRUE(report.executed);
  EXPECT_EQ(report.total_misses(), 0);
  for (const auto& t : report.tasks) EXPECT_FALSE(t.stats.stopped);
}

TEST_P(CrossValidation, OverrunBeyondBudgetStopsFaultyTaskAtThreshold) {
  const auto ts = feasible_set(GetParam() ^ 0xcafe, 0.6);
  if (!ts) GTEST_SKIP() << "infeasible draw";

  const sched::SystemAllowance s = sched::system_allowance(*ts);
  ASSERT_TRUE(s.feasible_at_zero);

  FtSystemConfig cfg;
  cfg.tasks = *ts;
  cfg.policy = TreatmentPolicy::kSystemAllowanceSound;
  cfg.horizon = horizon_for(*ts) * 4;
  cfg.detector.quantizer.mode = rt::Rounding::kNone;
  FaultPlan faults;
  // Well beyond the budget: the beneficiary must be cut off.
  faults.add_overrun((*ts)[s.beneficiary].name, 0, s.budget + 50_ms);
  FaultTolerantSystem sys(std::move(cfg), std::move(faults));
  const RunReport report = sys.run();
  ASSERT_TRUE(report.executed);

  const auto idx = static_cast<std::size_t>(s.beneficiary);
  EXPECT_TRUE(report.tasks[idx].stats.stopped);
  EXPECT_GE(report.tasks[idx].faults_detected, 1);
  // The beneficiary is the highest-priority task: never preempted, so it
  // is aborted exactly at release + threshold.
  Instant abort = Instant::never();
  for (const auto& e : sys.recorder().events()) {
    if (e.kind == trace::EventKind::kJobAborted &&
        e.task == static_cast<std::uint32_t>(s.beneficiary)) {
      abort = e.time;
    }
  }
  const Duration threshold = *report.tasks[idx].threshold;
  EXPECT_EQ(abort, Instant::epoch() + (*ts)[s.beneficiary].offset +
                       threshold);
  // No other task was stopped (sound thresholds absorb the inherited
  // shift).
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    if (i != idx) {
      EXPECT_FALSE(report.tasks[i].stats.stopped) << report.tasks[i].name;
      EXPECT_EQ(report.tasks[i].stats.missed, 0) << report.tasks[i].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Two-sided agreement: for a schedulable set with synchronous release,
// D <= T and distinct priorities, every task's first job is released at
// the critical instant, so the largest response the engine observes is
// *exactly* the analysis kernel's WCRT — not merely bounded by it.
// ---------------------------------------------------------------------------

TEST(TwoSidedAgreement, EngineMaxResponseEqualsKernelWcrt) {
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed ^ 0x2516);
    RandomTaskSetSpec spec;
    spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 10));
    spec.total_utilization = 0.5 + 0.45 * rng.next_double();
    spec.min_period = Duration::ms(5);
    spec.max_period = Duration::ms(200);
    const sched::TaskSet ts = make_random_task_set(rng, spec);
    sched::RtaView view(ts);
    const sched::FeasibilityReport report = sched::analyze(view);
    if (!report.feasible) continue;
    for (sched::TaskId i = 0; i < ts.size(); ++i) {
      ASSERT_LE(ts[i].deadline, ts[i].period);
      for (sched::TaskId j = 0; j < i; ++j) {
        ASSERT_NE(ts[i].priority, ts[j].priority);
      }
    }
    ++checked;

    rt::EngineOptions opts;
    opts.horizon = Instant::epoch() + horizon_for(ts);
    opts.sink_mode = trace::SinkMode::kStaticNull;
    rt::Engine eng(opts);
    std::vector<rt::TaskHandle> handles;
    for (const auto& t : ts) handles.push_back(eng.add_task(t));
    eng.run();
    for (sched::TaskId i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(eng.stats(handles[i]).max_response, report.tasks[i].wcrt)
          << "seed " << seed << " task " << ts[i].name;
    }
  }
  EXPECT_GE(checked, 200);
}

// ---------------------------------------------------------------------------
// Paper-specific agreement: the sound and paper thresholds coincide on
// the Table 2 system (no cascaded interference in the extended window).
// ---------------------------------------------------------------------------

TEST(SystemAllowanceVariants, AgreeOnPaperSystem) {
  const sched::SystemAllowance s =
      sched::system_allowance(core::paper::table2_system());
  EXPECT_EQ(s.stop_thresholds, s.sound_stop_thresholds);
}

}  // namespace
}  // namespace rtft
