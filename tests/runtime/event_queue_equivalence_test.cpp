// Event-queue equivalence — rt::Engine's timing wheel with lazy deadline
// validation must reproduce the reference engine's sorted event vector
// with one eager deadline check per job
// (tests/support/reference_engine.hpp) event for event, on quantized
// tie-heavy grids where many releases, completions, deadlines and timer
// fires share one date, so the (time, kind, seq) tie order is exercised.
// The production engines are reused through reset() across all
// scenarios, and one of them runs each scenario in random run_until()
// segments.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "reference_harness.hpp"

namespace rtft::rt {
namespace {

TEST(EventQueueEquivalence, EngineMatchesReferenceOnQuantizedTieHeavyGrids) {
  refcheck::check_seeds(1000, 1029, /*quantized=*/true);
}

TEST(EventQueueEquivalence, ScenariosReachEveryEnginePath) {
  // The comparisons are only as strong as the traffic they see: across
  // the seeds of this suite and the dispatch suite the reference must
  // observe misses, preemptions, aborts, stops, overruns and timer fires.
  std::vector<std::int64_t> seen =
      refcheck::reference_event_counts(1, 100, /*quantized=*/false);
  const std::vector<std::int64_t> grid =
      refcheck::reference_event_counts(1000, 1029, /*quantized=*/true);
  for (std::size_t k = 0; k < seen.size(); ++k) seen[k] += grid[k];
  using trace::EventKind;
  const auto count = [&](EventKind kind) {
    return seen[static_cast<std::size_t>(kind)];
  };
  EXPECT_GT(count(EventKind::kDeadlineMiss), 0);
  EXPECT_GT(count(EventKind::kJobPreempted), 0);
  EXPECT_GT(count(EventKind::kJobResumed), 0);
  EXPECT_GT(count(EventKind::kJobAborted), 0);
  EXPECT_GT(count(EventKind::kTaskStopped), 0);
  EXPECT_GT(count(EventKind::kOverrunInjected), 0);
  EXPECT_GT(count(EventKind::kTimerFire), 0);
}

}  // namespace
}  // namespace rtft::rt
