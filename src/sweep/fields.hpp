// One field table per sweep record type. Each row names a member, the
// key it carries in JSON and CSV, and how it is coded; the shard and
// report exporters, the shard loader, SweepAggregate::merge, the
// scenario-identity check and the sweep CLI all walk these tables, so a
// new field is one row, not an edit in seven places.
//
// The codec follows the member type: integers in decimal (a `hex` row
// rides as a 16-digit hex string, for 64-bit seeds), doubles as %.17g,
// bools as true/false (1/0 in CSV), Durations as nanoseconds, enums by
// their to_string name and vectors as arrays. Fingerprint::add,
// SweepAggregate::add and SweepReport::table stay hand-written: the
// first is the pin, the second holds the counting rules, the third is a
// human view.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/treatment.hpp"
#include "sched/priority.hpp"
#include "sweep/cli.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep::fields {

/// The runner-CLI spelling of an options row. A row without a name has
/// no flag: worker_argv requires it at its default. Each value (each
/// element of a list) must lie in [lo, hi]: Durations in whole
/// microseconds, enums by their underlying value. A double row with a
/// `what` lies in [lo, hi] and is described by it in errors; one without
/// must be finite and > 0.
struct Flag {
  const char* name = nullptr;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  const char* what = nullptr;
};

template <typename Rec, typename T>
struct Field {
  std::string_view key;  ///< JSON member and CSV column name.
  T Rec::*member;
  bool hex = false;       ///< a 64-bit value written as a hex string.
  bool identity = true;   ///< options rows: defines the scenario population.
  Flag flag = {};         ///< options rows: the runner CLI spelling.
};

template <typename Rec, typename T>
constexpr Field<Rec, T> field(std::string_view key, T Rec::*member,
                              bool hex = false) {
  return {key, member, hex};
}

template <typename Rec, typename T>
constexpr Field<Rec, T> option(std::string_view key, T Rec::*member,
                               Flag flag = {}, bool identity = true,
                               bool hex = false) {
  return {key, member, hex, identity, flag};
}

/// Calls `fn(row)` for every row of `table`, in order.
template <typename Table, typename Fn>
constexpr void for_each(const Table& table, Fn&& fn) {
  std::apply([&](const auto&... row) { (fn(row), ...); }, table);
}

/// Keys that more than one record type carries, spelled once.
namespace key {
inline constexpr std::string_view index = "index", cell = "cell",
                                  tasks = "tasks",
                                  detector_cost = "detector_cost_ns",
                                  stop_poll_latency = "stop_poll_latency_ns",
                                  cores = "cores", quantum = "quantum_ns",
                                  rta_schedulable = "rta_schedulable",
                                  engine_clean = "engine_clean",
                                  allowance_feasible = "allowance_feasible",
                                  allowance_honored = "allowance_honored",
                                  detector_clean = "detector_clean",
                                  ff_failover_clean = "ff_failover_clean",
                                  fa_failover_clean = "fa_failover_clean";
}  // namespace key

using V = ScenarioVerdict;
inline constexpr auto kVerdict = std::tuple{
    field(key::index, &V::index),
    field("seed", &V::seed, /*hex=*/true),
    field(key::cell, &V::cell),
    field(key::tasks, &V::task_count),
    field("target_utilization", &V::target_utilization),
    field("actual_utilization", &V::actual_utilization),
    field(key::detector_cost, &V::detector_cost),
    field(key::stop_poll_latency, &V::stop_poll_latency),
    field(key::rta_schedulable, &V::rta_schedulable),
    field(key::engine_clean, &V::engine_clean),
    field("nominal_misses", &V::nominal_misses),
    field("agreement", &V::agreement),
    field(key::allowance_feasible, &V::allowance_feasible),
    field("allowance_ns", &V::allowance),
    field(key::allowance_honored, &V::allowance_honored),
    field(key::detector_clean, &V::detector_clean),
    field("detector_faults", &V::detector_faults),
    field(key::cores, &V::cores),
    field(key::quantum, &V::quantum),
    // The multicore stage: every ff_*/fa_* row stays at its default in
    // a single-core verdict (the shard loader enforces it).
    field("ff_placement_feasible", &V::ff_placement_feasible),
    field("fa_placement_feasible", &V::fa_placement_feasible),
    field(key::ff_failover_clean, &V::ff_failover_clean),
    field(key::fa_failover_clean, &V::fa_failover_clean),
    field("ff_missed_tasks", &V::ff_missed_tasks),
    field("fa_missed_tasks", &V::fa_missed_tasks),
    field("ff_lost_jobs", &V::ff_lost_jobs),
    field("fa_lost_jobs", &V::fa_lost_jobs),
};

using A = SweepAggregate;
inline constexpr auto kAggregate = std::tuple{
    field("total", &A::total),
    field(key::rta_schedulable, &A::rta_schedulable),
    field(key::engine_clean, &A::engine_clean),
    field("agreement_violations", &A::agreement_violations),
    field(key::allowance_feasible, &A::allowance_feasible),
    field(key::allowance_honored, &A::allowance_honored),
    field(key::detector_clean, &A::detector_clean),
    field("allowance_sum_ns", &A::allowance_sum),
    field("multicore", &A::multicore),
    field("ff_placed", &A::ff_placed),
    field("fa_placed", &A::fa_placed),
    field(key::ff_failover_clean, &A::ff_failover_clean),
    field(key::fa_failover_clean, &A::fa_failover_clean),
};

/// A cell's grid coordinates (its aggregate travels beside them).
inline constexpr auto kCell = std::tuple{
    field(key::tasks, &CellSummary::task_count),
    field("utilization", &CellSummary::utilization),
    field(key::detector_cost, &CellSummary::detector_cost),
    field(key::stop_poll_latency, &CellSummary::stop_poll_latency),
    field(key::cores, &CellSummary::cores),
    field(key::quantum, &CellSummary::quantum),
};

inline constexpr auto kShard = std::tuple{
    field(key::index, &ShardSpec::index),
    field("shards", &ShardSpec::shards),
    field("begin", &ShardSpec::begin),
    field("end", &ShardSpec::end),
};

inline constexpr std::uint64_t kMaxI64 =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
/// Largest microsecond count Duration::us converts without overflow.
inline constexpr std::uint64_t kMaxUs = kMaxI64 / 1000;
/// Generated task sets take unique DM priorities from the RTSJ range.
inline constexpr std::uint64_t kMaxTasks =
    static_cast<std::uint64_t>(sched::kMaxRtPriority - sched::kMinRtPriority) +
    1;

using O = SweepOptions;
/// SweepOptions rows. keep_verdicts and on_progress are no rows: they
/// shape the report, not the scenarios, and never cross to a worker.
inline constexpr auto kOptions = std::tuple{
    option("scenario_count", &O::scenario_count, {"--scenarios", 1, kMaxI64}),
    option("base_seed", &O::base_seed, {"--seed", 0, kMaxI64}, true,
           /*hex=*/true),
    option("workers", &O::workers, {"--workers", 0, cli::kMaxWorkers},
           /*identity=*/false),
    option("horizon_periods", &O::horizon_periods,
           {"--horizon-periods", 1, cli::kMaxHorizonPeriods}),
    option("allowance_granularity_ns", &O::allowance_granularity),
    option("detector_policy", &O::detector_policy,
           {"--policy", 0,
            static_cast<std::uint64_t>(
                core::TreatmentPolicy::kSystemAllowanceSound)}),
    option("partitioner", &O::partitioner,
           {"--partitioner", 0,
            static_cast<std::uint64_t>(PartitionerMode::kFaultAware)}),
    option("core_fault_fraction", &O::core_fault_fraction,
           {"--core-fault", 0, 1, "a horizon fraction"}),
};

using G = SweepGrid;
/// SweepGrid rows; the options object nests them under "grid".
inline constexpr auto kGrid = std::tuple{
    option("task_counts", &G::task_counts, {"--tasks", 1, kMaxTasks}),
    option("utilizations", &G::utilizations, {"--util"}),
    option(key::detector_cost, &G::detector_costs,
           {"--detector-cost-us", 0, kMaxUs}),
    option(key::stop_poll_latency, &G::stop_poll_latencies,
           {"--stop-latency-us", 0, kMaxUs}),
    option("core_counts", &G::core_counts, {"--cores", 1, 64}),
    option("quantizer_resolution_ns", &G::quantizer_resolutions,
           {"--quantum-us", 1, kMaxUs}),
    option("deadline_min_factor", &G::deadline_min_factor),
    option("deadline_max_factor", &G::deadline_max_factor),
    option("min_period_ns", &G::min_period),
    option("max_period_ns", &G::max_period),
};

/// Calls `fn(row, rec.*row.member...)` for every options row and then
/// every grid row, with the member taken from each of `recs` in turn.
template <typename Fn, typename... Opts>
constexpr void for_each_option(Fn&& fn, Opts&... recs) {
  for_each(kOptions, [&](const auto& f) { fn(f, (recs.*f.member)...); });
  for_each(kGrid, [&](const auto& f) { fn(f, (recs.grid.*f.member)...); });
}

/// The enum codecs: the existing to_string names, read back through the
/// matching from_string (ContractViolation on an unknown name).
inline void from_string(std::string_view name, PartitionerMode& out) {
  out = partitioner_mode_from_string(name);
}
inline void from_string(std::string_view name, core::TreatmentPolicy& out) {
  out = core::treatment_policy_from_string(name);
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

}  // namespace rtft::sweep::fields
