// admission-mixed: an open-loop request stream against AdmissionService
// at its default options, and the same stream sent closed-loop to a
// second service for per-request latency. Traced runs add a
// single-threaded replay of the stream through the layers a request
// crosses.
#include <exception>
#include <optional>
#include <string>

#include "perfbench.hpp"
#include "runtime/engine.hpp"
#include "sched/canonical.hpp"
#include "sched/feasibility.hpp"
#include "serve/verdict_cache.hpp"
#include "trace/sink.hpp"

namespace rtft::perfbench {

namespace {

struct ReplayLedger {
  Stage canonical, lookup, insert, rta, engine;
  std::uint64_t requests = 0;
  std::int64_t engine_events = 0;
  std::uint64_t wrong = 0;
  std::uint64_t disagreements = 0;
};

/// The exact-tier path one request takes through the service — canonical
/// key, cache lookup, and on a miss RTA, the engine cross-check and the
/// cache insert — called layer by layer. With `led == nullptr` no span
/// reads a clock: the untraced baseline of the same replay.
class RequestReplay {
 public:
  explicit RequestReplay(const serve::ServiceOptions& opts)
      : opts_(opts), cache_(opts.cache_capacity),
        engine_(rt::EngineOptions{.horizon = Instant::from_ns(1)}) {
    engine_.reserve(32, 4 * 32 + 16);
  }

  /// Returns the verdict the exact tier gives.
  serve::AdmissionVerdict run(const std::vector<sched::TaskParams>& params,
                              ReplayLedger* led, ReplayLedger& counts) {
    sched::TaskSet ts;
    for (const sched::TaskParams& p : params) ts.add(p);
    sched::CanonicalTaskSet key;
    {
      Span span(led ? &led->canonical : nullptr);
      key = sched::canonicalize(ts);
    }
    std::optional<serve::CachedVerdict> hit;
    {
      Span span(led ? &led->lookup : nullptr);
      hit = cache_.lookup(key, serve::AnalysisTier::kExact);
    }
    if (hit) return hit->verdict;

    serve::CachedVerdict computed;
    computed.tier = serve::AnalysisTier::kExact;
    sched::FeasibilityReport report;
    {
      Span span(led ? &led->rta : nullptr);
      report = sched::analyze(ts);
    }
    computed.utilization = report.utilization;
    computed.verdict = report.feasible ? serve::AdmissionVerdict::kAdmit
                                       : serve::AdmissionVerdict::kReject;
    if (!cross_check(ts, report.feasible, led, counts)) {
      computed.tier = serve::AnalysisTier::kRtaOnly;
      computed.tier_is_ceiling = true;
    }
    {
      Span span(led ? &led->insert : nullptr);
      cache_.insert(key, computed);
    }
    return computed.verdict;
  }

 private:
  /// The engine replay of the set at its critical instant; false when
  /// the window exceeds the service's job cap (no run).
  bool cross_check(const sched::TaskSet& ts, bool feasible, ReplayLedger* led,
                   ReplayLedger& counts) {
    Duration max_period = Duration::zero();
    for (const sched::TaskParams& t : ts.tasks()) {
      if (t.period > max_period) max_period = t.period;
    }
    const Duration horizon = max_period * opts_.horizon_periods;
    std::int64_t jobs = 0;
    for (const sched::TaskParams& t : ts.tasks()) {
      jobs += (horizon.count() + t.period.count() - 1) / t.period.count();
    }
    if (jobs > opts_.max_cross_check_jobs) return false;

    std::int64_t missed = 0;
    {
      Span span(led ? &led->engine : nullptr);
      rt::EngineOptions eopts;
      eopts.horizon = Instant::epoch() + horizon;
      eopts.sink_mode = trace::SinkMode::kStaticCounting;
      eopts.counting_sink = &counting_;
      counting_.reset();
      engine_.reset(eopts);
      handles_.clear();
      for (const sched::TaskParams& t : ts.tasks()) {
        sched::TaskParams aligned = t;
        aligned.offset = Duration::zero();
        handles_.push_back(engine_.add_task(aligned));
      }
      engine_.run();
      for (const rt::TaskHandle h : handles_) missed += engine_.stats(h).missed;
    }
    for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
      counts.engine_events += counting_.total(static_cast<trace::EventKind>(k));
    }
    if ((missed == 0) != feasible) ++counts.disagreements;
    return true;
  }

  const serve::ServiceOptions& opts_;
  serve::VerdictCache cache_;
  rt::Engine engine_;
  trace::CountingSink counting_;
  std::vector<rt::TaskHandle> handles_;
};

/// A RequestReplay warmed with the hot set, as the services are, that
/// replays the stream slice by slice.
class StreamReplay {
 public:
  StreamReplay(const AdmissionInputs& in, const serve::ServiceOptions& opts)
      : in_(in), replay_(opts) {
    ReplayLedger warm;
    for (std::size_t h = 0; h < in.hot_entries; h += 3) {
      (void)replay_.run(in.sets[h], nullptr, warm);
    }
  }

  /// Replays the current slice; spans go to `led` when `traced`.
  /// Returns the process CPU seconds spent, so the traced and untraced
  /// replays' ratio isolates what the layer spans add.
  double run(bool traced, ReplayLedger& led) {
    const double c0 = process_cpu_s();
    for (const Arrival& a : in_.arrivals) {
      const serve::AdmissionVerdict v =
          replay_.run(in_.sets[a.set], traced ? &led : nullptr, led);
      if (!consistent(v, serve::AnalysisTier::kExact, in_.reference_admit[a.set])) {
        ++led.wrong;
      }
      ++led.requests;
    }
    return process_cpu_s() - c0;
  }

 private:
  const AdmissionInputs& in_;
  RequestReplay replay_;
};

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

double per_call(const Stage& s) {
  return s.calls == 0 ? 0.0 : static_cast<double>(s.ns) / static_cast<double>(s.calls);
}

/// p99 under the sample-count rule; 0 with a note when it cannot answer.
double p99_or_note(const std::vector<double>& samples, const std::string& name,
                   RunResult& r) {
  const std::optional<double> p = tail_percentile(samples, 0.99);
  if (!p) r.notes.push_back(name + ": too few samples for a p99");
  return p.value_or(0.0);
}

void warm(serve::AdmissionService& service, const AdmissionInputs& in) {
  for (std::size_t h = 0; h < in.hot_entries; h += 3) {
    serve::AdmissionRequest req;
    req.tasks = in.sets[h];
    (void)service.admit(std::move(req));
  }
}

void add_latencies(const std::vector<Observation>& obs, std::vector<double>& all,
                   std::vector<double>* hit, std::vector<double>* miss) {
  for (const Observation& o : obs) {
    all.push_back(o.latency_ms);
    if (hit != nullptr && o.status == serve::ResponseStatus::kAnswered) {
      (o.cache_hit ? hit : miss)->push_back(o.latency_ms);
    }
  }
}

}  // namespace

RunResult run_admission_workload(const RunSettings& s) {
  RunResult r;
  const std::int64_t start = steady_ns();
  const LoadShape shape;
  const serve::ServiceOptions opts;  // defaults: 2 workers, queue 64, cache 1024.
  // The load comes in slices of two seconds, each drawn from the seed
  // just before it is sent. After its open-loop run against `served`,
  // an untraced run sends the slice closed-loop to `timed` (the
  // per-request latencies); a traced run replays it layer by layer
  // instead, untraced and traced (the trace overhead).
  const double slice_seconds = 2.0;
  AdmissionInputs in = make_admission_inputs(s.seed, shape);

  serve::AdmissionService served(opts);
  warm(served, in);
  std::optional<serve::AdmissionService> timed;
  std::optional<StreamReplay> plain_replay, traced_replay;
  if (s.trace) {
    plain_replay.emplace(in, opts);
    traced_replay.emplace(in, opts);
  } else {
    timed.emplace(opts);
    warm(*timed, in);
  }

  ReplayLedger plain, led;
  Tally open, closed;
  std::vector<double> setup_samples, latency, lag, hit, miss;
  double served_cpu_s = 0.0, untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t slices = 0;
  std::int64_t last_slice_ns = 0;

  const serve::ServiceMetrics before = served.metrics();
  try {
    while (slices == 0 || fits(start, s.seconds, last_slice_ns)) {
      const std::int64_t t0 = steady_ns();
      if (!s.trace) {
        // Set-up: construction until the worker pool is started.
        for (int i = 0; i < 32; ++i) {
          setup_samples.push_back(time_construction<serve::AdmissionService>(opts));
        }
      }
      draw_slice(in, s.seed, slices, shape, slice_seconds);
      const double c0 = process_cpu_s();
      const std::vector<Observation> obs = run_open_loop(served, in, shape);
      served_cpu_s += process_cpu_s() - c0;
      tally(obs, in, shape, open);
      if (s.trace) {
        add_latencies(obs, latency, &hit, &miss);
        for (const Observation& o : obs) lag.push_back(o.lag_ms);
        // Alternate which replay runs first, so neither always inherits
        // the caches the served slice left behind.
        const bool traced_first = slices % 2 == 1;
        if (traced_first) traced_s += traced_replay->run(true, led);
        untraced_s += plain_replay->run(false, plain);
        if (!traced_first) traced_s += traced_replay->run(true, led);
      } else {
        const std::vector<Observation> sent = run_closed_loop(*timed, in, shape);
        tally(sent, in, shape, closed);
        add_latencies(sent, latency, nullptr, nullptr);
      }
      ++slices;
      last_slice_ns = steady_ns() - t0;
    }
  } catch (const std::exception& e) {
    r.notes.emplace_back(std::string("load generator failed: ") + e.what());
    return r;
  }
  const serve::ServiceMetrics after = served.metrics();
  served.stop();
  if (timed) timed->stop();

  r.attempted = open.sent + closed.sent + plain.requests + led.requests;
  r.failed = open.failed() + closed.failed() + plain.wrong + led.wrong;
  const std::uint64_t disagreements =
      after.cross_check_disagreements - before.cross_check_disagreements;
  const std::uint64_t wrong = open.wrong + closed.wrong;
  r.correct = wrong == 0 && disagreements == 0 &&
              after.submitted - before.submitted == open.sent;
  if (wrong != 0) r.notes.push_back(std::to_string(wrong) + " wrong verdicts");
  if (disagreements != 0) r.notes.emplace_back("engine cross-check disagreed");
  if (open.errors + closed.errors != 0) {
    r.notes.push_back(std::to_string(open.errors + closed.errors) +
                      " requests answered with an error status");
  }
  // Timing, not correctness: requests the overload protection refused or
  // shed, and answers past the latency limit (a stalled host shows here).
  if (open.refused + closed.refused != 0) {
    r.notes.push_back(std::to_string(open.refused + closed.refused) +
                      " requests refused or shed");
  }
  if (open.on_time + open.refused + open.failed() != open.sent) {
    r.notes.push_back("open loop: " +
                      std::to_string(open.sent - open.on_time - open.refused -
                                     open.failed()) +
                      " answers past the latency limit");
  }
  if (plain.wrong + plain.disagreements + led.wrong + led.disagreements != 0) {
    r.correct = false;
    r.notes.emplace_back("replay verdicts contradict the exact reference");
  }

  if (!s.trace) {
    if (timed->metrics().cross_check_disagreements != 0) {
      r.correct = false;
      r.notes.emplace_back("engine cross-check disagreed (closed loop)");
    }
    r.add("setup_s", median(setup_samples), "s", setup_samples.size());
    r.add("cpu_ms_per_op", served_cpu_s * 1e3 / static_cast<double>(open.sent), "ms",
          open.sent);
    r.add("latency_p50_ms", median(latency), "ms", latency.size());
    r.add("latency_p99_ms", p99_or_note(latency, "closed-loop latency", r), "ms",
          latency.size());
    r.add("ok_share", share(open.ok, open.sent), "ratio", open.sent);
    r.add("exact_share", share(open.exact, open.sent), "ratio", open.sent);
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (!tail_percentile(latency, 0.99)) r.correct = false;
    return r;
  }

  const std::size_t n = open.sent;
  r.add("serve.latency_p50_ms", median(latency), "ms", n);
  r.add("serve.latency_p99_ms", p99_or_note(latency, "latency", r), "ms", n);
  r.add("serve.hit.latency_p50_ms", hit.empty() ? 0.0 : median(hit), "ms", hit.size());
  r.add("serve.hit.latency_p99_ms", p99_or_note(hit, "hit latency", r), "ms",
        hit.size());
  r.add("serve.miss.latency_p50_ms", miss.empty() ? 0.0 : median(miss), "ms",
        miss.size());
  r.add("serve.miss.latency_p99_ms", p99_or_note(miss, "miss latency", r), "ms",
        miss.size());
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  r.add("serve.on_time_share", share(open.on_time, open.sent), "ratio", open.sent);
  r.add("serve.cache.hit_share", share(hits, hits + misses), "ratio", hits + misses);
  r.add("serve.cache.evictions",
        static_cast<double>(after.cache_evictions - before.cache_evictions), "count");
  const std::uint64_t answered = after.answered - before.answered;
  r.add("serve.tier.rta_share",
        share(after.answered_by_tier[1] - before.answered_by_tier[1], answered),
        "ratio", answered);
  r.add("serve.tier.bound_share",
        share(after.answered_by_tier[2] - before.answered_by_tier[2], answered),
        "ratio", answered);
  r.add("serve.queue.max_depth", static_cast<double>(after.max_queue_depth), "count");
  r.add("serve.queue.rejected_full",
        static_cast<double>(after.rejected_full - before.rejected_full), "count");
  r.add("serve.queue.shed_deadline",
        static_cast<double>(after.shed_deadline - before.shed_deadline), "count");
  r.add("serve.ladder.degrade_steps",
        static_cast<double>(after.degrade_steps - before.degrade_steps), "count");
  r.add("serve.cross_check_disagreements", static_cast<double>(disagreements),
        "count");
  r.add("loadgen.lag_p99_ms", p99_or_note(lag, "generator lag", r), "ms", n);

  const auto reqs = static_cast<double>(led.requests);
  r.add("sched.canonical.ns_per_call", per_call(led.canonical), "ns",
        led.canonical.calls);
  r.add("serve.cache.lookup_ns", per_call(led.lookup), "ns", led.lookup.calls);
  r.add("serve.cache.insert_ns", per_call(led.insert), "ns", led.insert.calls);
  r.add("sched.rta.ns_per_call", per_call(led.rta), "ns", led.rta.calls);
  r.add("runtime.engine.ns_per_run", per_call(led.engine), "ns", led.engine.calls);
  r.add("runtime.engine.runs_per_op", static_cast<double>(led.engine.calls) / reqs,
        "count", led.requests);
  r.add("runtime.engine.events_per_run",
        led.engine.calls == 0 ? 0.0
                              : static_cast<double>(led.engine_events) /
                                    static_cast<double>(led.engine.calls),
        "count", led.engine.calls);
  r.add("runtime.engine.ns_per_event",
        led.engine_events == 0 ? 0.0
                               : static_cast<double>(led.engine.ns) /
                                     static_cast<double>(led.engine_events),
        "ns", led.engine.calls);
  r.add("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio", led.requests);
  return r;
}

}  // namespace rtft::perfbench
