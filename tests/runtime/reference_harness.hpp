// Engine-vs-reference harness — runs one fuzz scenario
// (tests/runtime/scenario_fuzz.hpp) on the naive test-only reference
// engine (tests/support/reference_engine.hpp: linear dispatch scan,
// sorted event vector, one eager deadline check per job) and on a reused
// rt::Engine, and compares flattened traces, per-task statistics and
// every job's outcome. Shared by the dispatch and event-queue
// equivalence suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/engine.hpp"
#include "scenario_fuzz.hpp"
#include "support/reference_engine.hpp"
#include "trace/recorder.hpp"

namespace rtft::rt::refcheck {

struct RunResult {
  std::vector<fuzz::FlatEvent> events;  ///< trace, then the timer fires.
  std::vector<TaskStats> stats;
  std::vector<std::vector<JobOutcome>> outcomes;  ///< per task, per job.
};

/// Task i's cost: the same closure for both engines.
inline CostModel scenario_cost(const fuzz::Scenario& s, std::size_t i) {
  const Duration nominal = s.tasks[i].cost;
  const std::uint64_t seed = s.cost_seeds[i];
  const std::int64_t quantum = fuzz::cost_quantum(s);
  return [nominal, seed, quantum](std::int64_t job) {
    return fuzz::jittered_cost(nominal, seed, job, quantum);
  };
}

template <typename AnyEngine>
RunResult collect(const AnyEngine& engine, const trace::Recorder& rec,
                  std::int64_t fires) {
  RunResult result;
  result.events = fuzz::flatten(rec);
  result.events.emplace_back(fires, -1, 0, 0, 0);
  for (TaskHandle h = 0; h < engine.task_count(); ++h) {
    result.stats.push_back(engine.stats(h));
    std::vector<JobOutcome> jobs;
    for (std::int64_t j = 0; j < engine.stats(h).released; ++j) {
      jobs.push_back(engine.job_outcome(h, j));
    }
    result.outcomes.push_back(std::move(jobs));
  }
  return result;
}

inline RunResult run_reference(const fuzz::Scenario& s) {
  trace::Recorder rec;
  ref::ReferenceOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  opts.sink = &rec;
  ref::ReferenceEngine engine(opts);
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s, [&](std::size_t i) { return scenario_cost(s, i); }, fires);
  engine.run();
  return collect(engine, rec, fires);
}

/// Runs `s` on the reused production engine; `split_seed` != 0 first
/// advances it through up to three seeded run_until() stops.
inline RunResult run_production(Engine& engine, const fuzz::Scenario& s,
                                std::uint64_t split_seed) {
  trace::Recorder rec;
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  opts.sink = &rec;
  engine.reset(opts);
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s, [&](std::size_t i) { return scenario_cost(s, i); }, fires);
  if (split_seed != 0) {
    std::mt19937_64 rng(split_seed);
    std::vector<std::int64_t> cuts(rng() % 4);
    for (std::int64_t& c : cuts) {
      c = static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(s.horizon.count()));
    }
    std::sort(cuts.begin(), cuts.end());
    for (const std::int64_t c : cuts) {
      engine.run_until(Instant::epoch() + Duration::ns(c));
    }
  }
  engine.run();
  return collect(engine, rec, fires);
}

inline void expect_equivalent(const RunResult& a, const RunResult& b,
                              std::uint64_t seed) {
  ASSERT_EQ(a.events, b.events) << "trace divergence at seed " << seed;
  ASSERT_EQ(a.stats.size(), b.stats.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    ASSERT_EQ(a.stats[i].released, b.stats[i].released) << "seed " << seed;
    ASSERT_EQ(a.stats[i].completed, b.stats[i].completed) << "seed " << seed;
    ASSERT_EQ(a.stats[i].missed, b.stats[i].missed) << "seed " << seed;
    ASSERT_EQ(a.stats[i].aborted, b.stats[i].aborted) << "seed " << seed;
    ASSERT_EQ(a.stats[i].stopped, b.stats[i].stopped) << "seed " << seed;
    ASSERT_EQ(a.stats[i].max_response, b.stats[i].max_response)
        << "seed " << seed;
    ASSERT_EQ(a.stats[i].last_response, b.stats[i].last_response)
        << "seed " << seed;
  }
  ASSERT_EQ(a.outcomes, b.outcomes) << "job outcomes differ at seed " << seed;
}

/// Holds two reused engines — one run whole, one in random run_until()
/// segments — to the reference on seeds [first, last].
inline void check_seeds(std::uint64_t first, std::uint64_t last,
                        bool quantized) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + Duration::ms(1);
  Engine whole(bootstrap);
  Engine split(bootstrap);
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const fuzz::Scenario s = fuzz::random_scenario(seed, quantized);
    const RunResult reference = run_reference(s);
    expect_equivalent(run_production(whole, s, 0), reference, seed);
    expect_equivalent(run_production(split, s, seed), reference, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// How often each trace::EventKind occurs in the reference traces of
/// seeds [first, last].
inline std::vector<std::int64_t> reference_event_counts(std::uint64_t first,
                                                        std::uint64_t last,
                                                        bool quantized) {
  std::vector<std::int64_t> seen(trace::kEventKindCount, 0);
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const RunResult r = run_reference(fuzz::random_scenario(seed, quantized));
    for (const fuzz::FlatEvent& e : r.events) {
      const int kind = std::get<1>(e);
      if (kind >= 0) seen[static_cast<std::size_t>(kind)]++;
    }
  }
  return seen;
}

}  // namespace rtft::rt::refcheck
