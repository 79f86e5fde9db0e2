// Heap allocations of the analysis path and of the benchmark's set-up
// objects, counted by this binary's own operator new.
//
//   * Construction: SweepPlan, ScenarioRunner and AdmissionService build
//     no kernel workspace up front — workspaces start empty and grow on
//     first use — so they allocate only what their own members need.
//   * Per scenario: the analysis calls the sweep makes allocate a small,
//     fixed number of blocks (result vectors and one view), independent
//     of how many probes the allowance search makes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/treatment.hpp"
#include "multicore/partition.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "serve/service.hpp"
#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"

namespace {
/// Allocations made by the current thread (worker threads of a service
/// under construction do not count against its constructor).
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms too (std::stable_sort's buffer uses them), so every
// plain-aligned block is malloc'd and freed here, under sanitizers as well.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rtft {
namespace {

/// Allocations made by `fn` on this thread.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

/// The fail-over population of the benchmark (perfbench sweep-failover).
sweep::SweepOptions failover_options() {
  sweep::SweepOptions o;
  o.scenario_count = 600;
  o.workers = 1;
  o.grid.task_counts = {8, 16, 24};
  o.grid.utilizations = {0.9, 1.4, 1.8};
  o.grid.core_counts = {2, 4};
  o.grid.stop_poll_latencies = {Duration::zero(), Duration::us(2000),
                                Duration::us(20000)};
  o.detector_policy = core::TreatmentPolicy::kInstantStop;
  return o;
}

sweep::SweepOptions pinned_options() {
  sweep::SweepOptions o;
  o.workers = 1;
  return o;
}

// SweepPlan copies the six grid lists; ScenarioRunner pre-sizes its
// engine (and, on a multicore grid, its fleet); the service sizes its
// queue and cache. Set-up cost is benchmarked, so any further allocation
// here is a regression.
TEST(SetupAllocations, ConstructionAllocatesOnlyItsOwnMembers) {
  const sweep::SweepOptions pinned = pinned_options();
  const sweep::SweepOptions failover = failover_options();
  EXPECT_LE(allocations_of([&] { const sweep::SweepPlan plan(pinned); }), 6u);
  EXPECT_LE(allocations_of([&] { const sweep::ScenarioRunner r(pinned); }),
            15u);
  EXPECT_LE(allocations_of([&] { const sweep::ScenarioRunner r(failover); }),
            76u);
  serve::ServiceOptions sopts;
  sopts.autostart = false;
  EXPECT_LE(allocations_of([&] { const serve::AdmissionService s(sopts); }),
            2u);
}

TEST(AnalysisAllocations, PinnedScenarioStaysWithinSixteen) {
  const sweep::SweepOptions opts = pinned_options();
  sched::AllowanceOptions aopts;
  aopts.granularity = opts.allowance_granularity;
  std::uint64_t worst = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const sweep::ScenarioSpec spec = sweep::scenario_spec(opts, i);
    const sched::TaskSet ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
    const std::uint64_t n = allocations_of([&] {
      const bool feasible = sched::is_feasible(ts);
      const sched::EquitableAllowance ea =
          sched::equitable_allowance(ts, aopts);
      const core::TreatmentPlan plan = core::make_treatment_plan_or_degrade(
          ts, opts.detector_policy, feasible, aopts);
      (void)ea;
      (void)plan;
    });
    worst = std::max(worst, n);
  }
  EXPECT_LE(worst, 16u);
}

TEST(AnalysisAllocations, AllowanceSearchAllocatesTheSameForAnyProbeCount) {
  const sweep::SweepOptions opts = pinned_options();
  int compared = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const sweep::ScenarioSpec spec = sweep::scenario_spec(opts, i);
    const sched::TaskSet ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
    if (!sched::is_feasible(ts)) continue;
    ++compared;
    std::uint64_t counts[3] = {};
    int k = 0;
    // About 10, 17 and 30 probes respectively.
    for (const Duration g : {Duration::ms(1), Duration::us(10),
                             Duration::ns(1)}) {
      sched::AllowanceOptions aopts;
      aopts.granularity = g;
      counts[k++] = allocations_of(
          [&] { (void)sched::equitable_allowance(ts, aopts); });
    }
    EXPECT_EQ(counts[0], counts[1]) << i;
    EXPECT_EQ(counts[0], counts[2]) << i;
  }
  EXPECT_GT(compared, 20);
}

TEST(AnalysisAllocations, PlacementsStayWithinTheirBounds) {
  const sweep::SweepOptions opts = failover_options();
  const multicore::FirstFitDecreasing first_fit;
  const multicore::FaultAware fault_aware;
  // Pass 0 starts with empty per-thread workspaces, pass 1 reuses them.
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t ff_total = 0, fa_total = 0, ff_worst = 0, fa_worst = 0;
    constexpr std::uint64_t kScenarios = 120;
    for (std::uint64_t i = 0; i < kScenarios; ++i) {
      const sweep::ScenarioSpec spec = sweep::scenario_spec(opts, i);
      const sched::TaskSet ts =
          sweep::make_seeded_task_set(spec.seed, spec.tasks);
      const std::uint64_t ff =
          allocations_of([&] { (void)first_fit.place(ts, spec.cores); });
      const std::uint64_t fa =
          allocations_of([&] { (void)fault_aware.place(ts, spec.cores); });
      ff_total += ff;
      fa_total += fa;
      ff_worst = std::max(ff_worst, ff);
      fa_worst = std::max(fa_worst, fa);
    }
    EXPECT_LE(ff_total / kScenarios, 16u) << "pass " << pass;
    EXPECT_LE(fa_total / kScenarios, 32u) << "pass " << pass;
    if (pass == 1) {
      EXPECT_LE(ff_worst, 16u);
      EXPECT_LE(fa_worst, 32u);
    }
  }
}

}  // namespace
}  // namespace rtft
