// Randomized properties of the two guarantees the analysis kernel sits
// under:
//   * the admission service's degraded bound tier is "degraded but never
//     wrong": it never admits a set the exact tier rejects, nor rejects
//     one it admits;
//   * a placement that survives_any_single_fault() accepts never misses a
//     deadline, whichever single core dies.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "multicore/multi_engine.hpp"
#include "multicore/partition.hpp"
#include "sched/priority.hpp"
#include "serve/service.hpp"
#include "sweep/generators.hpp"

namespace rtft {
namespace {

serve::AdmissionRequest request_for(const sched::TaskSet& ts,
                                    std::uint64_t id) {
  serve::AdmissionRequest req;
  req.id = id;
  req.tasks = ts.tasks();
  return req;
}

/// A set the bounds could apply to: rate-monotonic priorities and
/// implicit deadlines; every fourth draw collapses priority pairs, the
/// shape the bound tier must refuse to judge.
sched::TaskSet bound_shaped(Rng& rng) {
  RandomTaskSetSpec spec;
  spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 8));
  spec.total_utilization = 0.3 + 0.9 * rng.next_double();
  spec.min_period = Duration::ms(5);
  spec.max_period = Duration::ms(100);
  spec.deadline_min_factor = 1.0;
  spec.deadline_max_factor = rng.next_in(0, 3) == 0 ? 1.5 : 1.0;
  const sched::TaskSet rm = sched::with_rate_monotonic_priorities(
      sweep::make_random_task_set(rng, spec));
  if (rng.next_in(0, 3) != 0) return rm;
  sched::TaskSet shared;
  for (sched::TaskParams p : rm) {
    p.priority /= 2;
    shared.add(std::move(p));
  }
  return shared;
}

TEST(OracleProperties, BoundTierNeverContradictsTheExactTier) {
  serve::ServiceOptions bound_opts;
  bound_opts.workers = 1;
  bound_opts.queue_capacity = 1;  // fill 1.0 at every pop: always kBound.
  serve::ServiceOptions exact_opts;
  exact_opts.workers = 1;
  exact_opts.queue_capacity = 64;
  serve::AdmissionService bound{bound_opts};
  serve::AdmissionService exact{exact_opts};

  Rng rng(0x60d);
  int admitted = 0;
  int rejected = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const sched::TaskSet ts = bound_shaped(rng);
    const serve::AdmissionResponse b = bound.admit(request_for(ts, i));
    const serve::AdmissionResponse e = exact.admit(request_for(ts, i));
    ASSERT_EQ(b.tier, serve::AnalysisTier::kBound);
    ASSERT_NE(e.tier, serve::AnalysisTier::kBound);
    if (b.verdict == serve::AdmissionVerdict::kAdmit) {
      ++admitted;
      EXPECT_EQ(e.verdict, serve::AdmissionVerdict::kAdmit) << "draw " << i;
    } else if (b.verdict == serve::AdmissionVerdict::kReject) {
      ++rejected;
      EXPECT_EQ(e.verdict, serve::AdmissionVerdict::kReject) << "draw " << i;
    }
  }
  // Both decisive answers were exercised.
  EXPECT_GT(admitted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(OracleProperties, AuditedPlacementsSurviveEverySingleCoreKill) {
  const multicore::FirstFitDecreasing first_fit;
  const multicore::FaultAware fault_aware;
  Rng rng(0xfa17);
  int audited = 0;
  for (std::uint64_t draw = 0; draw < 1000; ++draw) {
    const auto cores = static_cast<std::size_t>(rng.next_in(2, 4));
    RandomTaskSetSpec spec;
    spec.tasks = 2 * cores + static_cast<std::size_t>(rng.next_in(0, 6));
    spec.total_utilization =
        (0.3 + 0.4 * rng.next_double()) * static_cast<double>(cores);
    spec.min_period = Duration::ms(5);
    spec.max_period = Duration::ms(100);
    const sched::TaskSet ts = sweep::make_random_task_set(rng, spec);
    Duration max_period = Duration::zero();
    for (const auto& t : ts) max_period = std::max(max_period, t.period);
    const Duration horizon = max_period * 4;

    for (const multicore::Partitioner* strategy :
         {static_cast<const multicore::Partitioner*>(&first_fit),
          static_cast<const multicore::Partitioner*>(&fault_aware)}) {
      const multicore::Placement p = strategy->place(ts, cores);
      if (!multicore::survives_any_single_fault(ts, p, cores)) continue;
      ++audited;
      for (std::size_t victim = 0; victim < cores; ++victim) {
        rt::EngineOptions eopts;
        eopts.horizon = Instant::epoch() + horizon;
        eopts.sink_mode = trace::SinkMode::kStaticNull;
        multicore::MultiEngine fleet;
        fleet.reset(cores, eopts);
        fleet.add_placed(ts, p);
        multicore::CoreFaultPlan fault;
        fault.core = victim;
        fault.at = Instant::epoch() +
                   Duration::ns(rng.next_in(1, horizon.count() - 1));
        const multicore::MultiRunReport report = fleet.run_with_fault(fault);
        EXPECT_EQ(report.total_misses, 0)
            << strategy->name() << " draw " << draw << " core " << victim;
        EXPECT_TRUE(report.failover_clean)
            << strategy->name() << " draw " << draw << " core " << victim;
      }
    }
  }
  EXPECT_GT(audited, 600);
}

}  // namespace
}  // namespace rtft
