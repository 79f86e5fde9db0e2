// Per-job actual-cost specification for the engine.
//
// The paper injects temporal faults by making a specific job consume
// more CPU than its declared cost (§6: "a cost overrun was voluntarily
// added"). Originally every task carried a std::function cost model and
// paid a type-erased call per job; at sweep scale that call — plus the
// allocation its captures need — is measurable against an inner loop
// that is otherwise branch-and-add.
//
// CostSpec flattens the common cases into an enum plus parameters the
// engine resolves inline:
//
//   kNominal           — the task's declared cost, every job.
//   kFixedOverrunAtJob — one job's cost deviates by a fixed delta
//                        (the paper's injection; what the fault model
//                        and the sweep emit).
//   kSeededJitter      — deterministic pseudo-random cost per job in
//                        [lo, hi], SplitMix64-mixed from (seed, job);
//                        for randomized workloads without closures.
//   kCustom            — an arbitrary std::function; the fully general
//                        path, for RTSJ cost models and multi-job
//                        fault plans.
//
// Anything callable as Duration(std::int64_t) still converts implicitly
// (to kCustom), so existing call sites that pass lambdas to
// Engine::add_task compile unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace rtft::rt {

/// Actual execution cost of each job. The default (unset) model returns
/// the task's nominal cost; fault injection wraps it (§6: "a cost overrun
/// was voluntarily added").
using CostModel = std::function<Duration(std::int64_t job_index)>;

/// Which rule a CostSpec applies (see file comment).
enum class CostKind : std::uint8_t {
  kNominal,
  kFixedOverrunAtJob,
  kSeededJitter,
  kCustom,
};

/// Flat per-job cost rule; resolve() is the engine's only entry point.
struct CostSpec {
  CostKind kind = CostKind::kNominal;
  std::int64_t job = 0;       ///< kFixedOverrunAtJob: the deviating job.
  Duration extra;             ///< kFixedOverrunAtJob: the delta (any sign).
  std::uint64_t seed = 0;     ///< kSeededJitter.
  Duration jitter_lo;         ///< kSeededJitter: inclusive bounds.
  Duration jitter_hi;
  Duration quantum = Duration::ns(1);  ///< kSeededJitter: snap-down grid.
  CostModel custom;           ///< kCustom.

  CostSpec() = default;

  /// Implicit conversion from anything callable as Duration(int64) —
  /// including CostModel itself — so add_task keeps accepting lambdas.
  /// An empty CostModel means "nominal", exactly as before.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, CostSpec> &&
                std::is_constructible_v<CostModel, F&&>>>
  CostSpec(F&& fn)  // NOLINT(google-explicit-constructor)
      : kind(CostKind::kCustom), custom(std::forward<F>(fn)) {
    if (!custom) kind = CostKind::kNominal;
  }

  /// The task's declared cost, every job.
  [[nodiscard]] static CostSpec nominal() { return CostSpec{}; }

  /// Job `job` costs nominal + `extra` (floored at 1 ns — a job always
  /// does some work); every other job is nominal. Matches the fault
  /// model's closure semantics bit for bit.
  [[nodiscard]] static CostSpec fixed_overrun(std::int64_t job,
                                              Duration extra) {
    CostSpec s;
    s.kind = CostKind::kFixedOverrunAtJob;
    s.job = job;
    s.extra = extra;
    return s;
  }

  /// Deterministic per-job cost uniform over the `quantum`-ns grid
  /// points of [lo, hi], mixed from (seed, job) — same jobs, same
  /// costs, on every platform.
  [[nodiscard]] static CostSpec seeded_jitter(
      std::uint64_t seed, Duration lo, Duration hi,
      Duration quantum = Duration::ns(1)) {
    RTFT_EXPECTS(lo.is_positive(), "jitter bounds must be positive");
    RTFT_EXPECTS(hi >= lo, "jitter bounds must be ordered");
    RTFT_EXPECTS(quantum.is_positive(), "jitter quantum must be positive");
    CostSpec s;
    s.kind = CostKind::kSeededJitter;
    s.seed = seed;
    s.jitter_lo = lo;
    s.jitter_hi = hi;
    s.quantum = quantum;
    return s;
  }

  /// True when resolve() can never deviate from the nominal cost.
  [[nodiscard]] bool is_nominal() const {
    return kind == CostKind::kNominal;
  }

  /// Actual cost of job `job_index` for a task of declared cost
  /// `nominal_cost`. Always positive.
  [[nodiscard]] Duration resolve(Duration nominal_cost,
                                 std::int64_t job_index) const {
    switch (kind) {
      case CostKind::kNominal:
        return nominal_cost;
      case CostKind::kFixedOverrunAtJob: {
        if (job_index != job) return nominal_cost;
        const Duration c = nominal_cost + extra;
        return c < Duration::ns(1) ? Duration::ns(1) : c;
      }
      case CostKind::kSeededJitter: {
        // SplitMix64 finalizer over (seed, job): full-period, cheap,
        // and identical across platforms.
        std::uint64_t x =
            seed + 0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(job_index) + 1);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
        const auto span = static_cast<std::uint64_t>(
            (jitter_hi - jitter_lo).count() + 1);
        std::int64_t v =
            jitter_lo.count() + static_cast<std::int64_t>(x % span);
        v -= v % quantum.count();  // snap down to the grid.
        if (v < jitter_lo.count()) v = jitter_lo.count();
        return Duration::ns(v);
      }
      case CostKind::kCustom: {
        const Duration c = custom(job_index);
        RTFT_EXPECTS(c.is_positive(), "cost model must return positive costs");
        return c;
      }
    }
    return nominal_cost;  // unreachable; keeps -Wreturn-type quiet.
  }
};

}  // namespace rtft::rt
