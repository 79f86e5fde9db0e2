// rtft end-to-end benchmark: shared vocabulary of the workloads.
//
// One binary runs one workload for a fixed number of seconds and prints
// every metric by name and unit, ending with one JSON line. With
// --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports per-layer metrics from a separate replay that
// calls each module's public functions and times every call from
// outside (spans live in this directory, never inside src/).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/task.hpp"
#include "serve/admission.hpp"
#include "serve/service.hpp"
#include "sweep/sweep.hpp"

namespace rtft::perfbench {

// ---------------------------------------------------------------------------
// Clocks and process figures.
// ---------------------------------------------------------------------------

[[nodiscard]] std::int64_t steady_ns();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans: time spent inside one layer's calls, measured from outside.
// ---------------------------------------------------------------------------

struct Stage {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Adds the steady-clock time of its scope to a stage. A null stage
/// turns the span off entirely (no clock reads), which is how a replay
/// runs untraced.
class Span {
 public:
  explicit Span(Stage* stage, bool counts_call = true)
      : stage_(stage), counts_call_(counts_call),
        t0_(stage != nullptr ? steady_ns() : 0) {}
  ~Span() {
    if (stage_ == nullptr) return;
    stage_->ns += steady_ns() - t0_;
    if (counts_call_) ++stage_->calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Stage* stage_;
  bool counts_call_;
  std::int64_t t0_;
};

/// True while another step estimated at `step_ns` still fits in a run of
/// `seconds` that began at `start_ns`.
[[nodiscard]] bool fits(std::int64_t start_ns, double seconds, std::int64_t step_ns);

// ---------------------------------------------------------------------------
// Set-up timing.
// ---------------------------------------------------------------------------

/// Steady-clock seconds to construct one T(args...); the object is
/// destroyed after the clock stops.
template <class T, class... Args>
[[nodiscard]] double time_construction(const Args&... args) {
  std::optional<T> slot;
  const std::int64_t t0 = steady_ns();
  slot.emplace(args...);
  const std::int64_t t1 = steady_ns();
  return static_cast<double>(t1 - t0) * 1e-9;
}

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/// Median of the samples (mean of the middle two for an even count).
/// Requires a non-empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile q in (0, 1) — but only when at least
/// `min_beyond` samples lie strictly above the chosen rank, so a tail
/// figure always rests on enough observations. nullopt otherwise.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples,
                                                    double q,
                                                    std::size_t min_beyond = 10);

/// Smallest sample count for which tail_percentile(q) answers.
[[nodiscard]] std::size_t min_samples_for(double q,
                                          std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Result reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = n/a).
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< why `correct` is false, if it is.

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
};

/// Prints the human-readable table, then the one-line JSON document the
/// benchmark contract asks for, as the last line of stdout.
void print_result(const RunResult& result);

/// The metric names each mode reports, in print order. Every workload
/// reports every name of its mode; a layer a workload does not exercise
/// reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Orders `result.metrics` by the mode's list and fills absent names
/// with 0; throws std::logic_error on a name the list does not know.
void normalize_metrics(RunResult& result, bool traced);

// ---------------------------------------------------------------------------
// Workload settings.
// ---------------------------------------------------------------------------

struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Sweep workloads.
// ---------------------------------------------------------------------------

struct SweepWorkload {
  std::string name;
  sweep::SweepOptions options;  ///< one round; workers = 1.
  std::uint64_t shards = 4;     ///< in-process shards per round.
  std::uint64_t pinned_fingerprint = 0;
};

[[nodiscard]] SweepWorkload sweep_pinned_workload();
[[nodiscard]] SweepWorkload sweep_failover_workload();

/// The paper guarantees one scenario verdict must keep: RTA-schedulable
/// implies a clean nominal run; a feasible allowance is honored; a
/// fault-aware placement survives its core failure.
[[nodiscard]] bool keeps_guarantees(const sweep::ScenarioVerdict& v);

/// The order in which round `round`'s shards reach the merger — a seeded
/// permutation of [0, shards), so the merger's out-of-order buffering is
/// exercised the same way for the same seed.
[[nodiscard]] std::vector<std::uint64_t> shard_arrival_order(
    std::uint64_t seed, std::uint64_t round, std::uint64_t shards);

[[nodiscard]] RunResult run_sweep_workload(const SweepWorkload& w,
                                           const RunSettings& s);

// ---------------------------------------------------------------------------
// Admission workload.
// ---------------------------------------------------------------------------

struct LoadShape {
  double rate_per_s = 3000.0;     ///< Poisson arrival rate.
  double repeat_share = 0.7;      ///< requests drawn from the hot set.
  std::size_t hot_sets = 256;
  double variant_share = 0.2;     ///< hot repeats re-sent reordered/renamed.
  std::size_t min_tasks = 4;
  std::size_t max_tasks = 16;
  double min_util = 0.3;
  double max_util = 1.1;
  Duration min_period = Duration::ms(10);
  Duration max_period = Duration::ms(100);
  Duration latency_limit = Duration::ms(10);  ///< also the time_budget.
};

/// One scheduled request: when it is due (relative to the start of its
/// slice of load) and which task set it carries.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t set = 0;  ///< index into AdmissionInputs::sets.
};

/// The hot set, built once per run, plus the current slice of load.
struct AdmissionInputs {
  /// Hot sets first: 3 entries per hot set (as drawn, reordered,
  /// renamed), then one entry per fresh request of the current slice.
  std::vector<std::vector<sched::TaskParams>> sets;
  /// Exact reference per set: sched::analyze(...).feasible, computed
  /// before the slice is timed.
  std::vector<bool> reference_admit;
  std::vector<Arrival> arrivals;  ///< the current slice, in due order.
  std::size_t hot_entries = 0;    ///< sets[0, hot_entries) are hot variants.
};

/// The seeded hot set, with no arrivals yet.
[[nodiscard]] AdmissionInputs make_admission_inputs(std::uint64_t seed,
                                                    const LoadShape& shape);

/// Replaces the fresh sets and arrivals of `in` with slice `slice` of the
/// open-loop schedule: `seconds` of Poisson load, due times counted from
/// the slice's start. Only one slice is held at a time. Same (seed,
/// slice, shape, seconds) => identical slice.
void draw_slice(AdmissionInputs& in, std::uint64_t seed, std::uint64_t slice,
                const LoadShape& shape, double seconds);

/// What the client saw for one request.
struct Observation {
  serve::ResponseStatus status = serve::ResponseStatus::kAnswered;
  serve::AdmissionVerdict verdict = serve::AdmissionVerdict::kInconclusive;
  serve::AnalysisTier tier = serve::AnalysisTier::kExact;
  bool cache_hit = false;
  /// Open loop: due send time -> response observed. Closed loop: the
  /// admit() call's wall time.
  double latency_ms = 0.0;
  double lag_ms = 0.0;  ///< due send time -> actually submitted.
};

/// Drives `service` open-loop with the slice's arrivals: the calling
/// thread sleeps until each request's due time (the first is sent 2 ms
/// after the call) and submits it; one collector thread waits on the
/// futures in send order and stamps each response when it sees it.
/// Returns one observation per arrival.
[[nodiscard]] std::vector<Observation> run_open_loop(
    serve::AdmissionService& service, const AdmissionInputs& inputs,
    const LoadShape& shape);

/// Sends the slice's requests to `service` closed-loop, in arrival order
/// with one request in flight, through AdmissionService::admit(); each
/// observation's latency is the wall time of its admit() call.
[[nodiscard]] std::vector<Observation> run_closed_loop(
    serve::AdmissionService& service, const AdmissionInputs& inputs,
    const LoadShape& shape);

/// ok/exact accounting over observations. A request fails when the
/// service answered it wrongly (a verdict that contradicts the exact
/// reference) or with an error status; refusing it at a full queue or
/// shedding it past its deadline is the service's specified overload
/// behaviour and counts as handled. Whether an answer came in time is
/// timing, not correctness, and is counted apart in `on_time`.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;     ///< answered consistently, refused or shed.
  std::uint64_t exact = 0;  ///< answered at kExact.
  std::uint64_t wrong = 0;  ///< verdict contradicts the reference.
  std::uint64_t errors = 0; ///< any other status: worker error, invalid, ...
  std::uint64_t refused = 0;  ///< kRejectedFull or kShedDeadline.
  std::uint64_t on_time = 0;  ///< answered consistently within the limit.

  [[nodiscard]] std::uint64_t failed() const { return wrong + errors; }
};

/// True when `verdict` at `tier` is consistent with the exact answer:
/// the exact tiers must match it; the bound tier may be inconclusive
/// but never wrong.
[[nodiscard]] bool consistent(serve::AdmissionVerdict verdict,
                              serve::AnalysisTier tier, bool reference_admit);

/// `obs[i]` observed arrival `i` of `inputs`. Adds to `t`.
void tally(const std::vector<Observation>& obs, const AdmissionInputs& inputs,
           const LoadShape& shape, Tally& t);

[[nodiscard]] RunResult run_admission_workload(const RunSettings& s);

}  // namespace rtft::perfbench
