// Observation-seam and cost-model equivalence — the zero-virtual paths
// must be indistinguishable from the runtime-polymorphic oracles on
// randomized scenarios (tests/runtime/scenario_fuzz.hpp):
//
//   * flat CostSpec resolution vs a std::function closure computing the
//     identical per-job costs (trace equality via Recorder);
//   * engine-local batched counting (SinkMode::kStaticCounting) vs the
//     per-event virtual CountingSink (counter + stats equality);
//   * SinkMode::kStaticNull vs everything (stats equality);
//   * batched flush across split run_until() calls and across
//     Engine::reset() reuse (no leak into pooled follow-up runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/engine.hpp"
#include "scenario_fuzz.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;
using fuzz::Scenario;

/// The flat cost spec task `i` of `s` runs under — deliberately cycling
/// through every non-custom CostKind, including a negative overrun big
/// enough to exercise the 1 ns floor.
CostSpec flat_cost(const Scenario& s, std::size_t i) {
  const Duration nominal = s.tasks[i].cost;
  const std::int64_t quantum = fuzz::cost_quantum(s);
  switch (i % 3) {
    case 0:
      return CostSpec::seeded_jitter(s.cost_seeds[i],
                                     Duration::ns(nominal.count() / 2 + 1),
                                     nominal * 2, Duration::ns(quantum));
    case 1:
      return CostSpec::fixed_overrun(
          static_cast<std::int64_t>(i % 5),
          (i % 2 != 0) ? nominal / 2 : -(nominal * 2));
    default:
      return CostSpec::nominal();
  }
}

/// The same costs as a kCustom closure: wraps the flat spec's own
/// resolution, so the two runs differ *only* in the dispatch path
/// (inline switch vs type-erased call).
CostSpec function_cost(const Scenario& s, std::size_t i) {
  const CostSpec spec = flat_cost(s, i);
  const Duration nominal = s.tasks[i].cost;
  return CostModel([spec, nominal](std::int64_t job) {
    return spec.resolve(nominal, job);
  });
}

enum class Observation { kRecorder, kVirtualCounting, kStaticCounting,
                         kStaticNull };

struct RunResult {
  std::vector<fuzz::FlatEvent> events;       ///< kRecorder only.
  std::vector<trace::TaskCounters> counters; ///< counting modes only.
  std::vector<std::int64_t> kind_totals;     ///< counting modes only.
  std::vector<TaskStats> stats;
};

RunResult run_scenario(Engine& engine, const Scenario& s, Observation obs,
                       bool flat_costs) {
  trace::Recorder rec;
  trace::CountingSink counting;
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  switch (obs) {
    case Observation::kRecorder: opts.sink = &rec; break;
    case Observation::kVirtualCounting: opts.sink = &counting; break;
    case Observation::kStaticCounting:
      opts.sink_mode = trace::SinkMode::kStaticCounting;
      opts.counting_sink = &counting;
      break;
    case Observation::kStaticNull:
      opts.sink_mode = trace::SinkMode::kStaticNull;
      break;
  }
  engine.reset(opts);
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) {
        return flat_costs ? flat_cost(s, i) : function_cost(s, i);
      },
      fires);
  engine.run();
  RunResult result;
  if (obs == Observation::kRecorder) {
    result.events = fuzz::flatten(rec);
    result.events.emplace_back(fires, -1, 0, 0, 0);
  }
  if (obs == Observation::kVirtualCounting ||
      obs == Observation::kStaticCounting) {
    for (std::size_t i = 0; i < engine.task_count(); ++i) {
      result.counters.push_back(counting.counters(i));
    }
    for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
      result.kind_totals.push_back(
          counting.total(static_cast<trace::EventKind>(k)));
    }
  }
  for (std::size_t i = 0; i < engine.task_count(); ++i) {
    result.stats.push_back(engine.stats(i));
  }
  return result;
}

void expect_counters_equal(const std::vector<trace::TaskCounters>& a,
                           const std::vector<trace::TaskCounters>& b,
                           std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].released, b[i].released) << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].started, b[i].started) << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].completed, b[i].completed)
        << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].missed, b[i].missed) << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].aborted, b[i].aborted) << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions)
        << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].detector_fires, b[i].detector_fires)
        << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].faults_detected, b[i].faults_detected)
        << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].stopped, b[i].stopped) << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].max_response, b[i].max_response)
        << "seed " << seed << " task " << i;
    EXPECT_EQ(a[i].last_response, b[i].last_response)
        << "seed " << seed << " task " << i;
  }
}

void expect_stats_equal(const std::vector<TaskStats>& a,
                        const std::vector<TaskStats>& b, std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].released, b[i].released) << "seed " << seed;
    EXPECT_EQ(a[i].completed, b[i].completed) << "seed " << seed;
    EXPECT_EQ(a[i].missed, b[i].missed) << "seed " << seed;
    EXPECT_EQ(a[i].aborted, b[i].aborted) << "seed " << seed;
    EXPECT_EQ(a[i].stopped, b[i].stopped) << "seed " << seed;
    EXPECT_EQ(a[i].max_response, b[i].max_response) << "seed " << seed;
    EXPECT_EQ(a[i].last_response, b[i].last_response) << "seed " << seed;
  }
}

/// The 64 suite seeds: 40 free-form + 24 quantized tie-heavy grids.
std::vector<std::pair<std::uint64_t, bool>> suite_seeds() {
  std::vector<std::pair<std::uint64_t, bool>> seeds;
  for (std::uint64_t s = 1; s <= 40; ++s) seeds.emplace_back(s, false);
  for (std::uint64_t s = 1000; s < 1024; ++s) seeds.emplace_back(s, true);
  return seeds;
}

TEST(ObservationEquivalence, FlatCostSpecMatchesFunctionOracleTraces) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine flat_engine(bootstrap);
  Engine fn_engine(bootstrap);
  for (const auto& [seed, quantized] : suite_seeds()) {
    const Scenario s = fuzz::random_scenario(seed, quantized);
    const RunResult flat = run_scenario(flat_engine, s, Observation::kRecorder,
                                        /*flat_costs=*/true);
    const RunResult fn = run_scenario(fn_engine, s, Observation::kRecorder,
                                      /*flat_costs=*/false);
    ASSERT_EQ(flat.events, fn.events) << "cost divergence at seed " << seed;
    expect_stats_equal(flat.stats, fn.stats, seed);
  }
}

TEST(ObservationEquivalence, StaticCountingMatchesVirtualSink) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine static_engine(bootstrap);
  Engine virtual_engine(bootstrap);
  Engine null_engine(bootstrap);
  for (const auto& [seed, quantized] : suite_seeds()) {
    const Scenario s = fuzz::random_scenario(seed, quantized);
    const RunResult st = run_scenario(static_engine, s,
                                      Observation::kStaticCounting,
                                      /*flat_costs=*/true);
    const RunResult vt = run_scenario(virtual_engine, s,
                                      Observation::kVirtualCounting,
                                      /*flat_costs=*/true);
    expect_counters_equal(st.counters, vt.counters, seed);
    EXPECT_EQ(st.kind_totals, vt.kind_totals) << "seed " << seed;
    expect_stats_equal(st.stats, vt.stats, seed);
    // Static-null discards observation without disturbing execution.
    const RunResult nl = run_scenario(null_engine, s, Observation::kStaticNull,
                                      /*flat_costs=*/true);
    expect_stats_equal(nl.stats, vt.stats, seed);
  }
}

TEST(ObservationEquivalence, BatchedFlushCoversSplitRuns) {
  // A run split across run_until() calls must absorb into the sink the
  // same counters as one contiguous run — including last_response,
  // which only the task's most recent completion may set.
  const Scenario s = fuzz::random_scenario(11, /*quantized=*/false);
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine whole_engine(bootstrap);
  Engine split_engine(bootstrap);
  const RunResult whole = run_scenario(
      whole_engine, s, Observation::kStaticCounting, /*flat_costs=*/true);
  trace::CountingSink counting;
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  opts.sink_mode = trace::SinkMode::kStaticCounting;
  opts.counting_sink = &counting;
  split_engine.reset(opts);
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      split_engine, s, [&](std::size_t i) { return flat_cost(s, i); }, fires);
  split_engine.run_until(Instant::epoch() + s.horizon / 3);
  split_engine.run_until(Instant::epoch() + (s.horizon * 2) / 3);
  split_engine.run();
  std::vector<trace::TaskCounters> split;
  for (std::size_t i = 0; i < split_engine.task_count(); ++i) {
    split.push_back(counting.counters(i));
  }
  expect_counters_equal(whole.counters, split, 11);
}

TEST(ObservationEquivalence, ResetReuseLeaksNoCountersAcrossRuns) {
  // Pooled-runner pattern: one engine, thousands of scenarios. Counters
  // accumulated for scenario A — including events recorded through the
  // Engine::sink() seam *between* runs, which no run boundary flushed —
  // must never surface in scenario B's sink after reset().
  const Scenario a = fuzz::random_scenario(3, /*quantized=*/false);
  const Scenario b = fuzz::random_scenario(21, /*quantized=*/false);
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;

  Engine fresh_engine(bootstrap);
  const RunResult fresh = run_scenario(
      fresh_engine, b, Observation::kStaticCounting, /*flat_costs=*/true);

  Engine reused_engine(bootstrap);
  (void)run_scenario(reused_engine, a, Observation::kStaticCounting,
                     /*flat_costs=*/true);
  // Stray post-run events sit in the engine-local bank, unflushed.
  reused_engine.sink().record(reused_engine.now(),
                              trace::EventKind::kDetectorFire, 0, 0, 0);
  reused_engine.sink().record(reused_engine.now(),
                              trace::EventKind::kDeadlineMiss, 1, 0, 0);
  const RunResult reused = run_scenario(
      reused_engine, b, Observation::kStaticCounting, /*flat_costs=*/true);
  expect_counters_equal(fresh.counters, reused.counters, 21);
  EXPECT_EQ(fresh.kind_totals, reused.kind_totals);
}

}  // namespace
}  // namespace rtft::rt
