// The admission workload's inputs and its open-loop load generator.
#include <sys/prctl.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.hpp"
#include "perfbench.hpp"
#include "sched/feasibility.hpp"
#include "sweep/generators.hpp"

namespace rtft::perfbench {

namespace {

std::vector<sched::TaskParams> draw_set(Rng& rng, const LoadShape& shape) {
  RandomTaskSetSpec spec;
  spec.tasks = static_cast<std::size_t>(
      rng.next_in(static_cast<std::int64_t>(shape.min_tasks),
                  static_cast<std::int64_t>(shape.max_tasks)));
  spec.total_utilization =
      shape.min_util + (shape.max_util - shape.min_util) * rng.next_double();
  spec.min_period = shape.min_period;
  spec.max_period = shape.max_period;
  return sweep::make_seeded_task_set(rng.next_u64(), spec).tasks();
}

bool exact_reference(const std::vector<sched::TaskParams>& params) {
  sched::TaskSet ts;
  for (const sched::TaskParams& p : params) ts.add(p);
  return sched::analyze(ts).feasible;
}

}  // namespace

AdmissionInputs make_admission_inputs(std::uint64_t seed, const LoadShape& shape) {
  AdmissionInputs in;
  Rng rng(seed);
  // The hot set, each member also pre-built reordered and renamed: the
  // service must canonicalize those back onto the same cache entry.
  for (std::size_t h = 0; h < shape.hot_sets; ++h) {
    std::vector<sched::TaskParams> drawn = draw_set(rng, shape);
    std::vector<sched::TaskParams> reordered(drawn.rbegin(), drawn.rend());
    std::vector<sched::TaskParams> renamed = drawn;
    for (std::size_t i = 0; i < renamed.size(); ++i) {
      renamed[i].name = "hot" + std::to_string(h) + "_" + std::to_string(i);
    }
    in.sets.push_back(std::move(drawn));
    in.sets.push_back(std::move(reordered));
    in.sets.push_back(std::move(renamed));
  }
  in.hot_entries = in.sets.size();
  for (const auto& params : in.sets) {
    in.reference_admit.push_back(exact_reference(params));
  }
  return in;
}

void draw_slice(AdmissionInputs& in, std::uint64_t seed, std::uint64_t slice,
                const LoadShape& shape, double seconds) {
  in.sets.resize(in.hot_entries);
  in.sets.shrink_to_fit();
  in.reference_admit.resize(in.hot_entries);
  in.arrivals.clear();
  Rng rng(sweep::scenario_seed(seed, slice));
  // Poisson arrivals: exponential gaps at the configured rate.
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0.0;
  for (;;) {
    t_ns += -std::log1p(-rng.next_double()) / shape.rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t_ns);
    if (rng.next_double() < shape.repeat_share) {
      const auto h = static_cast<std::uint32_t>(
          rng.next_in(0, static_cast<std::int64_t>(shape.hot_sets) - 1));
      const double u = rng.next_double();
      const std::uint32_t variant =
          u < shape.variant_share / 2 ? 1 : (u < shape.variant_share ? 2 : 0);
      a.set = 3 * h + variant;
    } else {
      a.set = static_cast<std::uint32_t>(in.sets.size());
      in.sets.push_back(draw_set(rng, shape));
      in.reference_admit.push_back(exact_reference(in.sets.back()));
    }
    in.arrivals.push_back(a);
  }
}

std::vector<Observation> run_open_loop(serve::AdmissionService& service,
                                       const AdmissionInputs& inputs,
                                       const LoadShape& shape) {
  const std::size_t n = inputs.arrivals.size();
  std::vector<Observation> obs(n);
  std::vector<std::future<serve::AdmissionResponse>> futures(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;  // guarded by mu.
  bool aborted = false;       // guarded by mu.

  // The generator sleeps to each due time; a 1 ns timer slack keeps the
  // kernel from batching its wake-ups by the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t start =
      steady_ns() + 2'000'000 - (n > 0 ? inputs.arrivals[0].due_ns : 0);

  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i || aborted; });
        if (published <= i) return;
      }
      const serve::AdmissionResponse resp = futures[i].get();
      const std::int64_t seen = steady_ns();
      Observation& o = obs[i];
      o.status = resp.status;
      o.verdict = resp.verdict;
      o.tier = resp.tier;
      o.cache_hit = resp.cache_hit;
      o.latency_ms =
          static_cast<double>(seen - (start + inputs.arrivals[i].due_ns)) *
          1e-6;
    }
  });

  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = inputs.arrivals[i];
      serve::AdmissionRequest req;
      req.id = i;
      req.tasks = inputs.sets[a.set];
      req.time_budget = shape.latency_limit;
      const std::int64_t due = start + a.due_ns;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      obs[i].lag_ms = static_cast<double>(steady_ns() - due) * 1e-6;
      futures[i] = service.submit(std::move(req));
      {
        const std::lock_guard<std::mutex> lock(mu);
        published = i + 1;
      }
      cv.notify_one();
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      aborted = true;
    }
    cv.notify_one();
    collector.join();
    throw;
  }
  collector.join();
  return obs;
}

std::vector<Observation> run_closed_loop(serve::AdmissionService& service,
                                         const AdmissionInputs& inputs,
                                         const LoadShape& shape) {
  std::vector<Observation> obs(inputs.arrivals.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    serve::AdmissionRequest req;
    req.id = i;
    req.tasks = inputs.sets[inputs.arrivals[i].set];
    req.time_budget = shape.latency_limit;
    const std::int64_t t0 = steady_ns();
    const serve::AdmissionResponse resp = service.admit(std::move(req));
    Observation& o = obs[i];
    o.latency_ms = static_cast<double>(steady_ns() - t0) * 1e-6;
    o.status = resp.status;
    o.verdict = resp.verdict;
    o.tier = resp.tier;
    o.cache_hit = resp.cache_hit;
  }
  return obs;
}

bool consistent(serve::AdmissionVerdict verdict, serve::AnalysisTier tier,
                bool reference_admit) {
  if (verdict == serve::AdmissionVerdict::kInconclusive) {
    return tier == serve::AnalysisTier::kBound;
  }
  return (verdict == serve::AdmissionVerdict::kAdmit) == reference_admit;
}

void tally(const std::vector<Observation>& obs, const AdmissionInputs& inputs,
           const LoadShape& shape, Tally& t) {
  const double limit_ms = shape.latency_limit.to_ms();
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const Observation& o = obs[i];
    ++t.sent;
    switch (o.status) {
      case serve::ResponseStatus::kAnswered:
        break;
      case serve::ResponseStatus::kRejectedFull:
      case serve::ResponseStatus::kShedDeadline:
        ++t.refused;
        ++t.ok;
        continue;
      default:
        ++t.errors;
        continue;
    }
    if (o.tier == serve::AnalysisTier::kExact) ++t.exact;
    if (!consistent(o.verdict, o.tier,
                    inputs.reference_admit[inputs.arrivals[i].set])) {
      ++t.wrong;
      continue;
    }
    ++t.ok;
    if (o.latency_ms <= limit_ms) ++t.on_time;
  }
}

}  // namespace rtft::perfbench
