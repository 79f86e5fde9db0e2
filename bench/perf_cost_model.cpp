// Cost-model flattening comparison: the flat CostSpec (enum switch,
// resolved inline on the engine's actual_cost path) against the
// std::function closure it replaced, at n = 8 / 32 / 128 tasks.
//
// Both sides compute the *same* per-job costs — the function variant
// wraps the flat spec's own resolve() in a closure — so every run
// releases the same jobs and ns/event isolates pure resolution cost:
// the closure pays a type-erased indirect call (and its captured-state
// load) per job start; the flat spec is a branch over four enum cases.
//
//   BM_CostResolve_*   — raw per-resolve cost, no engine.
//   BM_CostModelRun_*  — the engine loop under each representation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/engine.hpp"
#include "support_bench.hpp"

namespace {

using namespace rtft;

constexpr std::size_t kResolveBatch = std::size_t{1} << 16;

// ---------------------------------------------------------------------------
// Raw resolution cost.
// ---------------------------------------------------------------------------

void report_resolve_counters(benchmark::State& state) {
  const double resolves = static_cast<double>(kResolveBatch) *
                          static_cast<double>(state.iterations());
  state.counters["resolves/s"] =
      benchmark::Counter(resolves, benchmark::Counter::kIsRate);
  state.counters["sec/resolve"] = benchmark::Counter(
      resolves, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void resolve_batch(benchmark::State& state, const rt::CostSpec& spec) {
  const Duration nominal = Duration::ms(2);
  for (auto _ : state) {
    Duration acc = Duration::zero();
    for (std::size_t i = 0; i < kResolveBatch; ++i) {
      acc = acc + spec.resolve(nominal, static_cast<std::int64_t>(i));
    }
    benchmark::DoNotOptimize(acc);
  }
  report_resolve_counters(state);
}

void BM_CostResolve_FlatNominal(benchmark::State& state) {
  resolve_batch(state, rt::CostSpec::nominal());
}
BENCHMARK(BM_CostResolve_FlatNominal);

void BM_CostResolve_FlatSeededJitter(benchmark::State& state) {
  resolve_batch(state, rt::CostSpec::seeded_jitter(
                           7, Duration::ms(1), Duration::ms(4)));
}
BENCHMARK(BM_CostResolve_FlatSeededJitter);

void BM_CostResolve_FunctionSeededJitter(benchmark::State& state) {
  // The kCustom representation: same arithmetic behind std::function.
  const rt::CostSpec flat =
      rt::CostSpec::seeded_jitter(7, Duration::ms(1), Duration::ms(4));
  const Duration nominal = Duration::ms(2);
  resolve_batch(state, rt::CostSpec(rt::CostModel(
                           [flat, nominal](std::int64_t job) {
                             return flat.resolve(nominal, job);
                           })));
}
BENCHMARK(BM_CostResolve_FunctionSeededJitter);

// ---------------------------------------------------------------------------
// The engine loop under each representation.
// ---------------------------------------------------------------------------

/// Per-task jitter bounded by the nominal cost, so flat and function
/// runs schedule identically and the workload stays the generator's.
rt::CostSpec jitter_for(const sched::TaskParams& t, std::uint64_t seed) {
  const Duration lo = Duration::ns(t.cost.count() / 2 + 1);
  return rt::CostSpec::seeded_jitter(seed, lo, t.cost);
}

void run_cost_bench(benchmark::State& state, bool flat) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2030, n, 0.85);

  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  opts.sink_mode = trace::SinkMode::kStaticNull;  // isolate cost dispatch
  rt::Engine engine(opts);
  engine.reserve(n, 4 * n);

  std::int64_t events = 0;  // jobs released + completed, both modes alike
  for (auto _ : state) {
    engine.reset(opts);
    std::vector<rt::TaskHandle> handles;
    handles.reserve(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const rt::CostSpec spec = jitter_for(ts[i], 900 + i);
      if (flat) {
        handles.push_back(engine.add_task(ts[i], spec));
      } else {
        const Duration nominal = ts[i].cost;
        handles.push_back(engine.add_task(
            ts[i], rt::CostModel([spec, nominal](std::int64_t job) {
              return spec.resolve(nominal, job);
            })));
      }
    }
    engine.run();
    for (const rt::TaskHandle h : handles) {
      events += engine.stats(h).released + engine.stats(h).completed;
    }
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events/iter"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}

void BM_CostModelRun_Flat(benchmark::State& state) {
  run_cost_bench(state, /*flat=*/true);
}

void BM_CostModelRun_Function(benchmark::State& state) {
  run_cost_bench(state, /*flat=*/false);
}

BENCHMARK(BM_CostModelRun_Flat)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_CostModelRun_Function)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
