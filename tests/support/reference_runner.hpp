// Test-only reference for sweep::ScenarioRunner: one scenario run the
// plain way, to hold the production runner equal verdict for verdict.
//
// It analyses with the reference analysis (rta_reference.hpp) and always
// performs the unfused sequence: a nominal run, the faulty run at the
// equitable allowance, and a separate detector-loaded run — where the
// production runner arms detectors that neither stop nor cost CPU in the
// nominal run and skips the detector run when the plan has no detectors.
// A fresh engine serves every run.
#pragma once

#include "sweep/sweep.hpp"

namespace rtft::ref {

[[nodiscard]] sweep::ScenarioVerdict run_scenario_unfused(
    const sweep::ScenarioSpec& spec, const sweep::SweepOptions& opts);

}  // namespace rtft::ref
