// The analysis kernel (src/sched/kernel.hpp) against the path it replaced
// (tests/support/rta_reference.hpp): on random sets — constrained and
// arbitrary deadlines, distinct and shared priorities, under- and
// overloaded — every RTA field, feasibility report, allowance, inflated
// WCRT, placement and fail-over audit must be identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hpp"
#include "multicore/partition.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/kernel.hpp"
#include "sched/response_time.hpp"
#include "support/rta_reference.hpp"
#include "sweep/generators.hpp"

namespace rtft {
namespace {

using sched::TaskId;
using sched::TaskSet;

/// The shapes the suite draws. Equal priorities come from collapsing the
/// deadline-monotonic ranks into pairs or triples.
struct Shape {
  const char* name;
  double util;
  double deadline_min;
  double deadline_max;
  int priority_divisor;  ///< 1 = distinct priorities.
};

constexpr Shape kShapes[] = {
    {"constrained", 0.75, 0.8, 1.0, 1},
    {"tight", 0.92, 0.7, 1.0, 1},
    {"shared-priority", 0.8, 0.8, 1.0, 2},
    {"arbitrary-deadline", 0.9, 1.0, 3.0, 1},
    {"arbitrary-shared", 0.95, 0.9, 2.5, 3},
    {"overloaded", 1.15, 0.9, 2.0, 2},
};

TaskSet draw(std::uint64_t seed, const Shape& shape) {
  Rng rng(seed);
  RandomTaskSetSpec spec;
  spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 8));
  spec.total_utilization = shape.util;
  spec.min_period = Duration::ms(5);
  spec.max_period = Duration::ms(200);
  spec.deadline_min_factor = shape.deadline_min;
  spec.deadline_max_factor = shape.deadline_max;
  const TaskSet drawn = sweep::make_random_task_set(rng, spec);
  TaskSet out;
  for (sched::TaskParams p : drawn) {
    p.priority /= shape.priority_divisor;
    out.add(std::move(p));
  }
  return out;
}

void expect_same_rta(const sched::RtaResult& got,
                     const sched::RtaResult& want, const std::string& where) {
  EXPECT_EQ(got.bounded, want.bounded) << where;
  EXPECT_EQ(got.wcrt, want.wcrt) << where;
  EXPECT_EQ(got.worst_job, want.worst_job) << where;
  EXPECT_EQ(got.jobs_examined, want.jobs_examined) << where;
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << where;
  for (std::size_t q = 0; q < got.jobs.size(); ++q) {
    EXPECT_EQ(got.jobs[q].index, want.jobs[q].index) << where;
    EXPECT_EQ(got.jobs[q].completion, want.jobs[q].completion) << where;
    EXPECT_EQ(got.jobs[q].response, want.jobs[q].response) << where;
  }
}

void expect_same_report(const sched::FeasibilityReport& got,
                        const sched::FeasibilityReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.load, want.load) << where;
  EXPECT_EQ(got.utilization, want.utilization) << where;
  ASSERT_EQ(got.tasks.size(), want.tasks.size()) << where;
  for (std::size_t i = 0; i < got.tasks.size(); ++i) {
    EXPECT_EQ(got.tasks[i].id, want.tasks[i].id) << where;
    EXPECT_EQ(got.tasks[i].bounded, want.tasks[i].bounded) << where;
    EXPECT_EQ(got.tasks[i].wcrt, want.tasks[i].wcrt) << where;
    EXPECT_EQ(got.tasks[i].meets_deadline, want.tasks[i].meets_deadline)
        << where;
  }
}

void expect_same_placement(const multicore::Placement& got,
                           const multicore::Placement& want,
                           const std::string& where) {
  EXPECT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.primary, want.primary) << where;
  EXPECT_EQ(got.backup, want.backup) << where;
}

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, RtaAndFeasibilityMatchTheReference) {
  sched::RtaOptions recording;
  recording.record_jobs = true;
  for (const Shape& shape : kShapes) {
    const TaskSet ts = draw(GetParam(), shape);
    const std::string where =
        std::string(shape.name) + " seed " + std::to_string(GetParam());
    for (TaskId i = 0; i < ts.size(); ++i) {
      expect_same_rta(sched::response_time(ts, i, recording),
                      ref::response_time(ts, i, recording),
                      where + " task " + std::to_string(i));
      EXPECT_EQ(sched::classic_response_time(ts, i),
                ref::classic_response_time(ts, i))
          << where;
    }
    const sched::FeasibilityReport want = ref::analyze(ts);
    expect_same_report(sched::analyze(ts), want, where);
    EXPECT_EQ(sched::is_feasible(ts), want.feasible) << where;
    // The view path, warm-started by the checks before it.
    sched::RtaView view(ts);
    EXPECT_EQ(sched::is_feasible(view), want.feasible) << where;
    expect_same_report(sched::analyze(view), want, where + " (view)");
  }
}

TEST_P(KernelEquivalence, AllowancesMatchTheReference) {
  for (const Shape& shape : kShapes) {
    const TaskSet ts = draw(GetParam() ^ 0xa11, shape);
    // A 1 ns grid drives D > T probes to the edge of unit load, where
    // busy periods run to thousands of jobs in either implementation;
    // those shapes take a 10 us grid here and 1 ns in the test below.
    const Duration fine =
        shape.deadline_max <= 1.0 ? Duration::ns(1) : Duration::us(10);
    for (const Duration g : {fine, Duration::us(100)}) {
      const std::string where = std::string(shape.name) + " seed " +
                                std::to_string(GetParam()) + " g " +
                                to_string(g);
      sched::AllowanceOptions opts;
      opts.granularity = g;
      const sched::EquitableAllowance want = ref::equitable_allowance(ts, opts);
      // Through the view the sweep runner reuses: feasibility first, so
      // the search starts warm, then a second search on the restored view.
      sched::RtaView view(ts);
      (void)sched::is_feasible(view);
      for (int pass = 0; pass < 2; ++pass) {
        const sched::EquitableAllowance got =
            pass == 0 ? sched::equitable_allowance(view, opts)
                      : sched::equitable_allowance(ts, opts);
        EXPECT_EQ(got.feasible_at_zero, want.feasible_at_zero) << where;
        EXPECT_EQ(got.allowance, want.allowance) << where;
        EXPECT_EQ(got.inflated_wcrt, want.inflated_wcrt) << where;
      }
      const sched::SystemAllowance sys = sched::system_allowance(ts, opts);
      const sched::SystemAllowance sys_want = ref::system_allowance(ts, opts);
      EXPECT_EQ(sys.feasible_at_zero, sys_want.feasible_at_zero) << where;
      EXPECT_EQ(sys.budget, sys_want.budget) << where;
      EXPECT_EQ(sys.beneficiary, sys_want.beneficiary) << where;
      EXPECT_EQ(sys.stop_thresholds, sys_want.stop_thresholds) << where;
      EXPECT_EQ(sys.sound_stop_thresholds, sys_want.sound_stop_thresholds)
          << where;
      EXPECT_EQ(sys.nominal_wcrt, sys_want.nominal_wcrt) << where;
      const TaskId last = ts.size() - 1;
      EXPECT_EQ(sched::max_single_task_overrun(ts, last, opts),
                ref::max_single_task_overrun(ts, last, opts))
          << where;
    }
  }
}

TEST_P(KernelEquivalence, PlacementsAndFailoverAuditMatchTheReference) {
  const multicore::FirstFitDecreasing ff;
  const multicore::FaultAware fa;
  Rng rng(GetParam() ^ 0xfa11);
  for (const std::size_t cores : {2u, 3u, 4u}) {
    for (const Shape& shape : kShapes) {
      RandomTaskSetSpec spec;
      spec.tasks = 2 * cores + static_cast<std::size_t>(rng.next_in(0, 12));
      spec.total_utilization = shape.util * 0.55 * static_cast<double>(cores);
      spec.deadline_min_factor = shape.deadline_min;
      spec.deadline_max_factor = shape.deadline_max;
      const TaskSet drawn = sweep::make_random_task_set(rng, spec);
      TaskSet ts;
      for (sched::TaskParams p : drawn) {
        p.priority /= shape.priority_divisor;
        ts.add(std::move(p));
      }
      const std::string where = std::string(shape.name) + " seed " +
                                std::to_string(GetParam()) + " cores " +
                                std::to_string(cores);
      const multicore::Placement ff_got = ff.place(ts, cores);
      const multicore::Placement fa_got = fa.place(ts, cores);
      expect_same_placement(ff_got, ref::first_fit_place(ts, cores),
                            where + " first-fit");
      expect_same_placement(fa_got, ref::fault_aware_place(ts, cores),
                            where + " fault-aware");
      // The audit on both placements, and on a random feasible-marked
      // assignment so that refusals are exercised too.
      multicore::Placement random_assignment;
      random_assignment.feasible = true;
      for (TaskId id = 0; id < ts.size(); ++id) {
        const auto width = static_cast<std::int64_t>(cores);
        const auto primary =
            static_cast<std::size_t>(rng.next_in(0, width - 1));
        random_assignment.primary.push_back(primary);
        random_assignment.backup.push_back(
            (primary + 1 +
             static_cast<std::size_t>(rng.next_in(0, width - 2))) %
            cores);
      }
      for (const multicore::Placement* p :
           {&ff_got, &fa_got,
            static_cast<const multicore::Placement*>(&random_assignment)}) {
        EXPECT_EQ(multicore::survives_any_single_fault(ts, *p, cores),
                  ref::survives_any_single_fault(ts, *p, cores))
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence,
                         ::testing::Range<std::uint64_t>(0, 64));

// A 1 ns probe grid runs the longest searches; the result must still be
// the largest feasible multiple exactly, on a shared-priority D > T set
// where several jobs of the busy period matter.
TEST(KernelEquivalence, NanosecondGridOnMultiJobBusyPeriods) {
  int multi_job = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const TaskSet ts = draw(seed, kShapes[4]);
    for (TaskId i = 0; i < ts.size(); ++i) {
      if (ref::response_time(ts, i).jobs_examined > 1) ++multi_job;
    }
    const sched::EquitableAllowance got = sched::equitable_allowance(ts);
    const sched::EquitableAllowance want = ref::equitable_allowance(ts);
    EXPECT_EQ(got.allowance, want.allowance) << seed;
    EXPECT_EQ(got.inflated_wcrt, want.inflated_wcrt) << seed;
  }
  EXPECT_GT(multi_job, 10);  // the draw really exercises the job loop.
}

}  // namespace
}  // namespace rtft
