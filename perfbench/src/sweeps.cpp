// sweep-pinned and sweep-failover: rounds of the shardable sweep, timed
// untraced, plus a traced stage-by-stage replay for the per-layer table.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "common/random.hpp"
#include "core/detector.hpp"
#include "core/treatment.hpp"
#include "multicore/multi_engine.hpp"
#include "multicore/partition.hpp"
#include "perfbench.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sweep/export.hpp"
#include "sweep/generators.hpp"
#include "trace/sink.hpp"

namespace rtft::perfbench {

SweepWorkload sweep_pinned_workload() {
  SweepWorkload w;
  w.name = "sweep-pinned";
  w.options.scenario_count = 1000;
  w.options.workers = 1;
  w.options.base_seed = 42;
  w.pinned_fingerprint = 0x3de9f44828016e12ULL;
  return w;
}

SweepWorkload sweep_failover_workload() {
  SweepWorkload w;
  w.name = "sweep-failover";
  sweep::SweepOptions& o = w.options;
  o.scenario_count = 600;
  o.workers = 1;
  o.base_seed = 42;
  o.grid.task_counts = {8, 16, 24};
  o.grid.utilizations = {0.9, 1.4, 1.8};
  o.grid.core_counts = {2, 4};
  o.grid.stop_poll_latencies = {Duration::zero(), Duration::us(2000),
                                Duration::us(20000)};
  o.detector_policy = core::TreatmentPolicy::kInstantStop;
  o.partitioner = sweep::PartitionerMode::kBoth;
  o.core_fault_fraction = 0.5;
  // Recorded at the parent commit of the benchmark with
  // `sweep_runner --scenarios 600 --workers 1 --seed 42 --tasks 8,16,24
  //  --util 0.9,1.4,1.8 --cores 2,4 --stop-latency-us 0,2000,20000
  //  --policy instant-stop --partitioner both --core-fault 0.5`.
  w.pinned_fingerprint = 0x19259ffb28e9f5c0ULL;
  return w;
}

bool keeps_guarantees(const sweep::ScenarioVerdict& v) {
  if (!v.agreement) return false;
  if (v.allowance_feasible && !v.allowance_honored) return false;
  if (v.cores > 1 && v.fa_placement_feasible && !v.fa_failover_clean) {
    return false;
  }
  return true;
}

std::vector<std::uint64_t> shard_arrival_order(std::uint64_t seed,
                                               std::uint64_t round,
                                               std::uint64_t shards) {
  std::vector<std::uint64_t> order(shards);
  for (std::uint64_t i = 0; i < shards; ++i) order[i] = i;
  Rng rng(sweep::scenario_seed(seed, round));
  for (std::uint64_t i = shards; i > 1; --i) {
    const auto j = static_cast<std::uint64_t>(
        rng.next_in(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

namespace {

// ---------------------------------------------------------------------------
// Set-up: plan validation plus the per-worker runner's construction.
// ---------------------------------------------------------------------------

/// What a sweep worker builds before its first scenario.
struct SweepSetup {
  explicit SweepSetup(const sweep::SweepOptions& opts)
      : plan(opts), runner(plan.options()) {}
  sweep::SweepPlan plan;
  sweep::ScenarioRunner runner;
};

// ---------------------------------------------------------------------------
// One untraced round: run_shard -> shard_json -> load_shard_json ->
// ShardMerger for every shard, in the seeded arrival order.
// ---------------------------------------------------------------------------

struct RoundOutcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t broken = 0;  ///< scenarios breaking a paper guarantee.
};

RoundOutcome run_round(const SweepWorkload& w,
                       const std::vector<std::uint64_t>& order,
                       std::vector<double>* scenario_cpu_ms) {
  sweep::SweepOptions opts = w.options;
  double last = 0.0;
  if (scenario_cpu_ms != nullptr) {
    // Workers = 1 runs every scenario on this thread, so the thread CPU
    // clock between two progress calls is one scenario's cost.
    opts.on_progress = [&](std::uint64_t, std::uint64_t) {
      const double now = thread_cpu_s();
      scenario_cpu_ms->push_back((now - last) * 1e3);
      last = now;
    };
  }
  const sweep::SweepPlan plan(opts);
  sweep::ShardMerger merger;
  for (const std::uint64_t k : order) {
    last = thread_cpu_s();
    const sweep::ShardResult shard = sweep::run_shard(plan.shard(k, w.shards), opts);
    merger.add(sweep::load_shard_json(sweep::shard_json(shard)));
  }
  const sweep::SweepReport report = merger.finish();
  RoundOutcome out;
  out.fingerprint = report.fingerprint;
  out.scenarios = report.verdicts.size();
  for (const sweep::ScenarioVerdict& v : report.verdicts) {
    if (!keeps_guarantees(v)) ++out.broken;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The traced replay: the stages ScenarioRunner::run performs, called
// one by one through public functions, each inside a span.
// ---------------------------------------------------------------------------

Duration max_period(const sched::TaskSet& ts) {
  Duration m = Duration::zero();
  for (const auto& t : ts) m = std::max(m, t.period);
  return m;
}

struct ReplayLedger {
  Stage generators, rta, allowance, engine, treatment, detector;
  Stage partition_ff, partition_fa, fleet;
  Stage encode, decode, merge;
  std::uint64_t engine_runs = 0;
  std::int64_t engine_events = 0;
  std::int64_t detector_faults = 0;
  std::uint64_t fa_placed = 0;
  std::int64_t lost_jobs = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t scenarios = 0;
  std::int64_t wall_ns = 0;  ///< whole replay rounds, spans and glue.
};

class StageReplay {
 public:
  StageReplay(const sweep::SweepOptions& opts, ReplayLedger& ledger)
      : opts_(opts), led_(ledger), engine_(rt::EngineOptions{.horizon = Instant::from_ns(1)}) {
    std::size_t max_tasks = 0;
    for (const std::size_t n : opts.grid.task_counts) {
      max_tasks = std::max(max_tasks, n);
    }
    engine_.reserve(max_tasks, 4 * max_tasks + 16);
    handles_.reserve(max_tasks);
    std::size_t max_cores = 1;
    for (const std::size_t m : opts.grid.core_counts) {
      max_cores = std::max(max_cores, m);
    }
    if (max_cores > 1) fleet_.reserve(max_cores, max_tasks, 4 * max_tasks + 16);
  }

  sweep::ScenarioVerdict run(const sweep::ScenarioSpec& spec) {
    sched::TaskSet ts;
    {
      Span span(&led_.generators);
      ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
    }
    const Duration horizon = max_period(ts) * opts_.horizon_periods;
    stop_poll_latency_ = spec.stop_poll_latency;

    sweep::ScenarioVerdict v;
    v.index = spec.index;
    v.seed = spec.seed;
    v.cell = spec.cell;
    v.task_count = ts.size();
    v.target_utilization = spec.tasks.total_utilization;
    v.actual_utilization = ts.utilization();
    v.detector_cost = spec.detector_cost;
    v.stop_poll_latency = spec.stop_poll_latency;
    v.cores = spec.cores;
    v.quantum = spec.quantum;

    {
      Span span(&led_.rta);
      v.rta_schedulable = sched::is_feasible(ts);
    }

    {
      Span span(&led_.engine, false);
      arm(ts, horizon);
      engine_.run();
    }
    note_run();
    v.nominal_misses = counting_.total(trace::EventKind::kDeadlineMiss);
    v.engine_clean = v.nominal_misses == 0;
    v.agreement = !v.rta_schedulable || v.engine_clean;

    sched::AllowanceOptions aopts;
    aopts.granularity = opts_.allowance_granularity;
    sched::EquitableAllowance ea;
    {
      Span span(&led_.allowance);
      ea = sched::equitable_allowance(ts, aopts);
    }
    v.allowance_feasible = ea.feasible_at_zero;
    if (ea.feasible_at_zero) {
      v.allowance = ea.allowance;
      {
        Span span(&led_.engine, false);
        arm(ts, horizon, ts.by_priority_desc().front(), ea.allowance);
        engine_.run();
      }
      note_run();
      v.allowance_honored =
          counting_.total(trace::EventKind::kDeadlineMiss) == 0;
    }

    core::TreatmentPlan plan;
    {
      Span span(&led_.treatment);
      plan = core::make_treatment_plan_or_degrade(ts, opts_.detector_policy,
                                                  v.rta_schedulable, aopts);
    }
    {
      Span span(&led_.engine, false);
      if (plan.detects && plan.stops) {
        arm(ts, horizon, ts.by_priority_desc().front(), max_period(ts));
      } else {
        arm(ts, horizon);
      }
    }
    std::optional<core::DetectorBank> bank;
    if (plan.detects) {
      Span span(&led_.detector);
      core::DetectorConfig dcfg;
      dcfg.quantizer =
          spec.quantum == Duration::ms(1)
              ? rt::Quantizer{Duration::ms(1), rt::Rounding::kNone}
              : rt::Quantizer{spec.quantum, rt::Rounding::kNearest};
      dcfg.fire_cost = spec.detector_cost;
      core::DetectorBank::FaultHandler handler;
      if (plan.stops) {
        handler = [](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
          e.request_stop(task, rt::StopMode::kTask);
        };
      }
      bank.emplace(engine_, handles_, std::move(plan.thresholds), dcfg,
                   std::move(handler));
    }
    {
      Span span(&led_.engine, false);
      engine_.run();
    }
    note_run();
    v.detector_clean = counting_.total(trace::EventKind::kDeadlineMiss) == 0;
    v.detector_faults = bank ? bank->total_faults() : 0;
    led_.detector_faults += v.detector_faults;

    if (spec.cores > 1) run_multicore(spec, ts, horizon, v);
    ++led_.scenarios;
    return v;
  }

 private:
  void arm(const sched::TaskSet& ts, Duration horizon,
           std::optional<sched::TaskId> faulty = {},
           Duration extra = Duration::zero()) {
    rt::EngineOptions eopts;
    eopts.horizon = Instant::epoch() + horizon;
    eopts.stop_poll_latency = stop_poll_latency_;
    eopts.sink_mode = trace::SinkMode::kStaticCounting;
    eopts.counting_sink = &counting_;
    counting_.reset();
    engine_.reset(eopts);
    handles_.clear();
    for (sched::TaskId id = 0; id < ts.size(); ++id) {
      rt::CostSpec cost;
      if (faulty && *faulty == id) cost = rt::CostSpec::fixed_overrun(0, extra);
      handles_.push_back(engine_.add_task(ts[id], std::move(cost)));
    }
  }

  void note_run() {
    ++led_.engine_runs;
    for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
      led_.engine_events += counting_.total(static_cast<trace::EventKind>(k));
    }
  }

  void run_multicore(const sweep::ScenarioSpec& spec, const sched::TaskSet& ts,
                     Duration horizon, sweep::ScenarioVerdict& v) {
    rt::EngineOptions eopts;
    eopts.horizon = Instant::epoch() + horizon;
    eopts.sink_mode = trace::SinkMode::kStaticNull;
    const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
        opts_.core_fault_fraction * static_cast<double>(horizon.count())));

    const auto run_one = [&](const multicore::Partitioner& strategy,
                             Stage& place_stage, bool& placed, bool& clean,
                             std::int64_t& missed_tasks,
                             std::int64_t& lost_jobs) {
      multicore::Placement placement;
      {
        Span span(&place_stage);
        placement = strategy.place(ts, spec.cores);
      }
      placed = placement.feasible;
      if (!placement.feasible) return;
      Span span(&led_.fleet);
      fleet_.reset(spec.cores, eopts);
      fleet_.add_placed(ts, placement);
      multicore::CoreFaultPlan fault;
      if (fault_after.is_positive() && fault_after < horizon) {
        const std::vector<double> load =
            multicore::primary_utilization(ts, placement, spec.cores);
        std::size_t victim = 0;
        for (std::size_t c = 1; c < load.size(); ++c) {
          if (load[c] > load[victim]) victim = c;
        }
        fault.core = victim;
        fault.at = Instant::epoch() + fault_after;
      }
      const multicore::MultiRunReport report = fleet_.run_with_fault(fault);
      clean = report.failover_clean;
      missed_tasks = report.missed_tasks;
      lost_jobs = report.total_lost_jobs;
      led_.lost_jobs += report.total_lost_jobs;
    };

    if (opts_.partitioner != sweep::PartitionerMode::kFaultAware) {
      run_one(first_fit_, led_.partition_ff, v.ff_placement_feasible,
              v.ff_failover_clean, v.ff_missed_tasks, v.ff_lost_jobs);
    }
    if (opts_.partitioner != sweep::PartitionerMode::kFirstFit) {
      run_one(fault_aware_, led_.partition_fa, v.fa_placement_feasible,
              v.fa_failover_clean, v.fa_missed_tasks, v.fa_lost_jobs);
      if (v.fa_placement_feasible) ++led_.fa_placed;
    }
  }

  const sweep::SweepOptions& opts_;
  ReplayLedger& led_;
  rt::Engine engine_;
  trace::CountingSink counting_;
  std::vector<rt::TaskHandle> handles_;
  Duration stop_poll_latency_;
  multicore::MultiEngine fleet_;
  multicore::FirstFitDecreasing first_fit_;
  multicore::FaultAware fault_aware_;
};

/// One traced round: every shard replayed stage by stage, assembled into
/// the ShardResult run_shard would return, then exported, re-loaded and
/// merged inside spans. Returns the merged fingerprint and counts broken
/// guarantees.
RoundOutcome replay_round(const SweepWorkload& w,
                          const std::vector<std::uint64_t>& order,
                          ReplayLedger& led) {
  const std::int64_t t0 = steady_ns();
  const sweep::SweepPlan plan(w.options);
  const sweep::SweepOptions& opts = plan.options();
  StageReplay replay(opts, led);
  sweep::ShardMerger merger;
  RoundOutcome out;
  for (const std::uint64_t k : order) {
    const sweep::ShardSpec spec = plan.shard(k, w.shards);
    sweep::ShardResult shard;
    shard.options = opts;
    shard.shard = spec;
    shard.cells.resize(opts.grid.cell_count());
    shard.verdicts.reserve(spec.count());
    sweep::Fingerprint fp;
    for (std::uint64_t i = spec.begin; i < spec.end; ++i) {
      const sweep::ScenarioVerdict v = replay.run(sweep::scenario_spec(opts, i));
      shard.totals.add(v);
      shard.cells[v.cell].agg.add(v);
      fp.add(v);
      if (!keeps_guarantees(v)) ++out.broken;
      shard.verdicts.push_back(v);
    }
    shard.fingerprint = fp.value();
    sweep::detail::fill_cell_metadata(opts, shard.cells);
    std::string doc;
    {
      Span span(&led.encode);
      doc = sweep::shard_json(shard);
    }
    led.export_bytes += doc.size();
    std::optional<sweep::ShardResult> loaded;
    {
      Span span(&led.decode);
      loaded.emplace(sweep::load_shard_json(doc));
    }
    Span span(&led.merge);
    merger.add(std::move(*loaded));
  }
  {
    Span span(&led.merge, false);
    const sweep::SweepReport report = merger.finish();
    out.fingerprint = report.fingerprint;
    out.scenarios = report.verdicts.size();
  }
  led.wall_ns += steady_ns() - t0;
  return out;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_layer_metrics(const ReplayLedger& led, RunResult& r) {
  const auto n = static_cast<double>(led.scenarios);
  const auto wall = static_cast<double>(led.wall_ns);
  const auto ns_per_call = [](const Stage& s) {
    return per(static_cast<double>(s.ns), static_cast<double>(s.calls));
  };
  const auto share = [&](std::int64_t ns) {
    return per(static_cast<double>(ns), wall);
  };
  const std::size_t samples = led.scenarios;
  r.add("sweep.generators.ns_per_call", ns_per_call(led.generators), "ns", samples);
  r.add("sweep.generators.share", share(led.generators.ns), "ratio", samples);
  r.add("sched.rta.ns_per_call", ns_per_call(led.rta), "ns", samples);
  r.add("sched.rta.share", share(led.rta.ns), "ratio", samples);
  r.add("sched.allowance.ns_per_call", ns_per_call(led.allowance), "ns",
        led.allowance.calls);
  r.add("sched.allowance.share", share(led.allowance.ns), "ratio", samples);
  const auto runs = static_cast<double>(led.engine_runs);
  r.add("runtime.engine.ns_per_run", per(static_cast<double>(led.engine.ns), runs),
        "ns", led.engine_runs);
  r.add("runtime.engine.runs_per_op", per(runs, n), "count", samples);
  r.add("runtime.engine.events_per_run",
        per(static_cast<double>(led.engine_events), runs), "count",
        led.engine_runs);
  r.add("runtime.engine.ns_per_event",
        per(static_cast<double>(led.engine.ns),
            static_cast<double>(led.engine_events)),
        "ns", led.engine_runs);
  r.add("runtime.engine.share", share(led.engine.ns), "ratio", samples);
  r.add("core.treatment.ns_per_call", ns_per_call(led.treatment), "ns", samples);
  r.add("core.treatment.share", share(led.treatment.ns), "ratio", samples);
  r.add("core.detector.ns_per_call", ns_per_call(led.detector), "ns",
        led.detector.calls);
  r.add("core.detector.faults_per_scenario",
        per(static_cast<double>(led.detector_faults), n), "count", samples);
  r.add("core.detector.share", share(led.detector.ns), "ratio", samples);
  r.add("multicore.partition.ff_ns_per_call", ns_per_call(led.partition_ff), "ns",
        led.partition_ff.calls);
  r.add("multicore.partition.fa_ns_per_call", ns_per_call(led.partition_fa), "ns",
        led.partition_fa.calls);
  r.add("multicore.partition.fa_placed_share",
        per(static_cast<double>(led.fa_placed),
            static_cast<double>(led.partition_fa.calls)),
        "ratio", led.partition_fa.calls);
  r.add("multicore.partition.share",
        share(led.partition_ff.ns + led.partition_fa.ns), "ratio", samples);
  const auto fleet_runs = static_cast<double>(led.fleet.calls);
  r.add("multicore.fleet.ns_per_run", ns_per_call(led.fleet), "ns", led.fleet.calls);
  r.add("multicore.fleet.runs_per_scenario", per(fleet_runs, n), "count", samples);
  r.add("multicore.fleet.lost_jobs_per_run",
        per(static_cast<double>(led.lost_jobs), fleet_runs), "count",
        led.fleet.calls);
  r.add("multicore.fleet.share", share(led.fleet.ns), "ratio", samples);
  r.add("sweep.export.encode_ns_per_scenario",
        per(static_cast<double>(led.encode.ns), n), "ns", samples);
  r.add("sweep.export.decode_ns_per_scenario",
        per(static_cast<double>(led.decode.ns), n), "ns", samples);
  r.add("sweep.export.bytes_per_scenario",
        per(static_cast<double>(led.export_bytes), n), "bytes", samples);
  r.add("sweep.export.share", share(led.encode.ns + led.decode.ns), "ratio",
        samples);
  r.add("sweep.merge.ns_per_scenario", per(static_cast<double>(led.merge.ns), n),
        "ns", samples);
  r.add("sweep.merge.share", share(led.merge.ns), "ratio", samples);
  const std::int64_t spanned =
      led.generators.ns + led.rta.ns + led.allowance.ns + led.engine.ns +
      led.treatment.ns + led.detector.ns + led.partition_ff.ns +
      led.partition_fa.ns + led.fleet.ns + led.encode.ns + led.decode.ns +
      led.merge.ns;
  r.add("sweep.runner.glue_share", 1.0 - share(spanned), "ratio", samples);
}

}  // namespace

RunResult run_sweep_workload(const SweepWorkload& w, const RunSettings& s) {
  RunResult r;
  const std::int64_t start = steady_ns();
  const std::uint64_t round_size = w.options.scenario_count;
  const std::uint64_t min_rounds =
      s.trace ? 1 : (min_samples_for(0.99) + round_size - 1) / round_size;

  std::vector<double> setup_samples;
  std::vector<double> scenario_cpu_ms;
  ReplayLedger led;
  double untraced_cpu_s = 0.0, traced_cpu_s = 0.0;
  std::uint64_t rounds = 0, untraced_scenarios = 0, exact_scenarios = 0;
  std::int64_t last_round_ns = 0;
  bool ok = true;

  // Each round runs untraced; a traced run follows every untraced round
  // with the stage replay of the same round, so both sample the host over
  // the whole run and the replay is held to that round's fingerprint.
  try {
    while (rounds < min_rounds || fits(start, s.seconds, last_round_ns)) {
      const std::int64_t t0 = steady_ns();
      for (int i = 0; !s.trace && i < 64; ++i) {
        setup_samples.push_back(time_construction<SweepSetup>(w.options));
      }
      const std::vector<std::uint64_t> order =
          shard_arrival_order(s.seed, rounds, w.shards);
      const double c0 = process_cpu_s();
      const RoundOutcome out =
          run_round(w, order, s.trace ? nullptr : &scenario_cpu_ms);
      untraced_cpu_s += process_cpu_s() - c0;
      ++rounds;
      r.attempted += round_size;
      untraced_scenarios += round_size;
      if (out.fingerprint == w.pinned_fingerprint && out.scenarios == round_size) {
        exact_scenarios += round_size;
        r.failed += out.broken;
      } else {
        r.failed += round_size;  // the whole round is unproven.
        ok = false;
        char buf[96];
        std::snprintf(buf, sizeof buf, "round %llu merged to %016llx",
                      static_cast<unsigned long long>(rounds),
                      static_cast<unsigned long long>(out.fingerprint));
        r.notes.emplace_back(buf);
      }
      if (s.trace) {
        const double c1 = process_cpu_s();
        const RoundOutcome traced = replay_round(w, order, led);
        traced_cpu_s += process_cpu_s() - c1;
        r.attempted += traced.scenarios;
        r.failed += traced.broken;
        if (traced.fingerprint != out.fingerprint) {
          ok = false;
          r.notes.emplace_back("traced replay fingerprint differs from the untraced run");
        }
      }
      last_round_ns = steady_ns() - t0;
    }
  } catch (const std::exception& e) {
    r.notes.emplace_back(std::string("round failed: ") + e.what());
    r.correct = false;
    return r;
  }
  if (r.failed != 0 && ok) r.notes.emplace_back("a scenario broke a paper guarantee");
  const double cpu_ms_per_scenario =
      untraced_cpu_s * 1e3 / static_cast<double>(untraced_scenarios);

  if (s.trace) {
    if (!ok) {
      r.correct = false;  // refuse per-layer numbers that measured another program.
      return r;
    }
    add_layer_metrics(led, r);
    const double traced_cpu_ms_per_scenario =
        traced_cpu_s * 1e3 / static_cast<double>(led.scenarios);
    r.add("trace.overhead_share", traced_cpu_ms_per_scenario / cpu_ms_per_scenario - 1.0,
          "ratio", led.scenarios);
    r.correct = r.failed == 0;
    return r;
  }

  const std::optional<double> p99 = tail_percentile(scenario_cpu_ms, 0.99);
  r.add("setup_s", median(setup_samples), "s", setup_samples.size());
  r.add("cpu_ms_per_op", cpu_ms_per_scenario, "ms", untraced_scenarios);
  r.add("latency_p50_ms", median(scenario_cpu_ms), "ms", scenario_cpu_ms.size());
  r.add("latency_p99_ms", p99.value_or(0.0), "ms", scenario_cpu_ms.size());
  r.add("ok_share",
        static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted),
        "ratio", r.attempted);
  r.add("exact_share",
        static_cast<double>(exact_scenarios) / static_cast<double>(r.attempted),
        "ratio", r.attempted);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (!p99) {
    ok = false;
    r.notes.emplace_back("too few scenarios for a p99");
  }
  r.correct = ok && r.failed == 0;
  return r;
}

}  // namespace rtft::perfbench
