// Dispatcher equivalence — rt::Engine's ready-queue dispatch must
// reproduce the reference engine's linear dispatch scan
// (tests/support/reference_engine.hpp) event for event, on free-form
// randomized scenarios (tests/runtime/scenario_fuzz.hpp) that cross every
// path the dispatcher is interleaved with: priority ties and FIFO
// backlogs, cost overruns and underruns, context-switch charging,
// injected overhead, stop requests in both modes, timers and deadline
// misses. The production engines are reused through reset() across all
// scenarios, and one of them runs each scenario in random run_until()
// segments.
#include <gtest/gtest.h>

#include "reference_harness.hpp"

namespace rtft::rt {
namespace {

TEST(DispatchEquivalence, EngineMatchesReferenceOnRandomScenarios) {
  refcheck::check_seeds(1, 100, /*quantized=*/false);
}

}  // namespace
}  // namespace rtft::rt
