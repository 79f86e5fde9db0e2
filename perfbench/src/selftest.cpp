// Tests of the benchmark's own code: order statistics, the seeded
// inputs, and the ok/exact accounting against a service with injected
// worker faults. Prints one line per failed check; exit 1 on any.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>

#include "perfbench.hpp"

namespace {

int g_failures = 0;

void check(bool cond, const char* what, int line) {
  if (!cond) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace rtft;
using namespace rtft::perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose.
  return v;
}

void percentile_rule() {
  CHECK(median(one_to(5)) == 3.0);
  CHECK(median(one_to(4)) == 2.5);
  CHECK(median({7.0}) == 7.0);
  // Nearest rank: p99 of 1..1000 is 990, with 10 samples above it.
  const std::optional<double> p = tail_percentile(one_to(1000), 0.99);
  CHECK(p.has_value() && *p == 990.0);
  // One sample fewer leaves only 9 beyond the rank: no answer.
  CHECK(!tail_percentile(one_to(999), 0.99).has_value());
  CHECK(min_samples_for(0.99) == 1000);
  CHECK(min_samples_for(0.5) == 20);
  CHECK(tail_percentile(one_to(20), 0.5) == 10.0);
  CHECK(!tail_percentile(one_to(19), 0.5).has_value());
  CHECK(!tail_percentile({}, 0.99).has_value());
  CHECK(!tail_percentile(one_to(5000), 1.0).has_value());
}

bool same_inputs(const AdmissionInputs& a, const AdmissionInputs& b) {
  if (a.arrivals.size() != b.arrivals.size() || a.sets.size() != b.sets.size() ||
      a.reference_admit != b.reference_admit || a.hot_entries != b.hot_entries) {
    return false;
  }
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    if (a.arrivals[i].due_ns != b.arrivals[i].due_ns ||
        a.arrivals[i].set != b.arrivals[i].set) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.sets.size(); ++i) {
    if (a.sets[i].size() != b.sets[i].size()) return false;
    for (std::size_t k = 0; k < a.sets[i].size(); ++k) {
      const sched::TaskParams& x = a.sets[i][k];
      const sched::TaskParams& y = b.sets[i][k];
      if (x.name != y.name || x.priority != y.priority || x.cost != y.cost ||
          x.period != y.period || x.deadline != y.deadline) {
        return false;
      }
    }
  }
  return true;
}

void arrival_schedule() {
  LoadShape shape;
  shape.hot_sets = 32;
  const auto slice = [&](std::uint64_t seed, std::uint64_t k) {
    AdmissionInputs in = make_admission_inputs(seed, shape);
    draw_slice(in, seed, k, shape, 1.0);
    return in;
  };
  const AdmissionInputs a = slice(7, 0);
  CHECK(same_inputs(a, slice(7, 0)));
  CHECK(!same_inputs(a, slice(8, 0)));
  CHECK(!same_inputs(a, slice(7, 1)));
  // A slice depends only on (seed, index), not on the slice drawn before.
  AdmissionInputs redrawn = slice(7, 1);
  draw_slice(redrawn, 7, 0, shape, 1.0);
  CHECK(same_inputs(a, redrawn));
  // Poisson at 3000/s over 1 s: well inside +/- 10%.
  CHECK(a.arrivals.size() > 2700 && a.arrivals.size() < 3300);
  CHECK(std::is_sorted(a.arrivals.begin(), a.arrivals.end(),
                       [](const Arrival& x, const Arrival& y) {
                         return x.due_ns < y.due_ns;
                       }));
  std::size_t fresh = 0;
  for (const Arrival& arr : a.arrivals) {
    if (arr.set >= a.hot_entries) ++fresh;
  }
  const double fresh_share =
      static_cast<double>(fresh) / static_cast<double>(a.arrivals.size());
  CHECK(fresh_share > 0.25 && fresh_share < 0.35);
  // Hot variants share a reference; task counts and periods in range.
  for (std::size_t h = 0; h < a.hot_entries; h += 3) {
    CHECK(a.reference_admit[h] == a.reference_admit[h + 1]);
    CHECK(a.reference_admit[h] == a.reference_admit[h + 2]);
  }
  for (const auto& set : a.sets) {
    CHECK(set.size() >= shape.min_tasks && set.size() <= shape.max_tasks);
    for (const sched::TaskParams& t : set) {
      CHECK(t.period >= shape.min_period && t.period <= shape.max_period);
    }
  }
}

void shard_order() {
  const std::vector<std::uint64_t> o = shard_arrival_order(3, 5, 4);
  CHECK(o == shard_arrival_order(3, 5, 4));
  CHECK(std::set<std::uint64_t>(o.begin(), o.end()) ==
        (std::set<std::uint64_t>{0, 1, 2, 3}));
  bool varies = false;
  for (std::uint64_t round = 0; round < 8; ++round) {
    varies = varies || shard_arrival_order(3, round, 4) != o;
  }
  CHECK(varies);
}

void verdict_consistency() {
  using serve::AdmissionVerdict;
  using serve::AnalysisTier;
  CHECK(consistent(AdmissionVerdict::kAdmit, AnalysisTier::kExact, true));
  CHECK(!consistent(AdmissionVerdict::kAdmit, AnalysisTier::kExact, false));
  CHECK(!consistent(AdmissionVerdict::kReject, AnalysisTier::kRtaOnly, true));
  CHECK(consistent(AdmissionVerdict::kInconclusive, AnalysisTier::kBound, true));
  CHECK(!consistent(AdmissionVerdict::kInconclusive, AnalysisTier::kExact, true));
  CHECK(!consistent(AdmissionVerdict::kAdmit, AnalysisTier::kBound, false));
}

void ok_share_counts_worker_errors() {
  LoadShape shape;
  shape.hot_sets = 16;
  AdmissionInputs in = make_admission_inputs(11, shape);
  draw_slice(in, 11, 0, shape, 0.3);
  serve::ServiceOptions opts;
  opts.faults.worker_throw_every = 10;
  serve::AdmissionService service(opts);
  const std::vector<Observation> obs = run_open_loop(service, in, shape);
  service.stop();
  const serve::ServiceMetrics m = service.metrics();
  Tally t;
  tally(obs, in, shape, t);

  std::uint64_t worker_errors = 0;
  for (const Observation& o : obs) {
    if (o.status == serve::ResponseStatus::kWorkerError) ++worker_errors;
  }
  CHECK(t.sent == in.arrivals.size());
  CHECK(m.worker_errors > 0);
  CHECK(worker_errors == m.worker_errors);
  CHECK(t.errors >= worker_errors);
  CHECK(t.failed() >= worker_errors);
  CHECK(t.sent - t.ok == t.failed());
  CHECK(t.on_time <= t.ok - t.refused);
  CHECK(t.wrong == 0);
}

void metric_lists() {
  RunResult r;
  r.add("cpu_ms_per_op", 1.5, "ms");
  normalize_metrics(r, false);
  CHECK(r.metrics.size() == end_to_end_metrics().size());
  CHECK(r.metrics[1].name == "cpu_ms_per_op" && r.metrics[1].value == 1.5);
  RunResult bad;
  bad.add("no.such.metric", 1.0, "ms");
  bool threw = false;
  try {
    normalize_metrics(bad, true);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  try {
    percentile_rule();
    arrival_schedule();
    shard_order();
    verdict_consistency();
    ok_share_counts_worker_errors();
    metric_lists();
  } catch (const std::exception& e) {
    std::printf("FAIL: unexpected exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("%s (%d failed checks)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
