// Clocks, order statistics and the result printer.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "perfbench.hpp"

namespace rtft::perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Shortest text that reads back as the same double.
std::string exact_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

bool fits(std::int64_t start_ns, double seconds, std::int64_t step_ns) {
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  return steady_ns() - start_ns + step_ns <= budget;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::logic_error("median of no samples");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

std::optional<double> tail_percentile(std::vector<double> samples, double q,
                                      std::size_t min_beyond) {
  if (!(q > 0.0 && q < 1.0) || samples.empty()) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::size_t min_samples_for(double q, std::size_t min_beyond) {
  // Grow n until the nearest rank leaves min_beyond samples above it.
  std::size_t n = min_beyond + 1;
  for (;;) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n - rank >= min_beyond) return n;
    ++n;
  }
}

void RunResult::add(std::string name, double value, std::string unit,
                    std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},          {"cpu_ms_per_op", "ms"},
      {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
      {"ok_share", "ratio"},     {"exact_share", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"sweep.generators.ns_per_call", "ns"},
      {"sweep.generators.share", "ratio"},
      {"sched.rta.ns_per_call", "ns"},
      {"sched.rta.share", "ratio"},
      {"sched.allowance.ns_per_call", "ns"},
      {"sched.allowance.share", "ratio"},
      {"sched.canonical.ns_per_call", "ns"},
      {"runtime.engine.ns_per_run", "ns"},
      {"runtime.engine.runs_per_op", "count"},
      {"runtime.engine.events_per_run", "count"},
      {"runtime.engine.ns_per_event", "ns"},
      {"runtime.engine.share", "ratio"},
      {"core.treatment.ns_per_call", "ns"},
      {"core.treatment.share", "ratio"},
      {"core.detector.ns_per_call", "ns"},
      {"core.detector.faults_per_scenario", "count"},
      {"core.detector.share", "ratio"},
      {"multicore.partition.ff_ns_per_call", "ns"},
      {"multicore.partition.fa_ns_per_call", "ns"},
      {"multicore.partition.fa_placed_share", "ratio"},
      {"multicore.partition.share", "ratio"},
      {"multicore.fleet.ns_per_run", "ns"},
      {"multicore.fleet.runs_per_scenario", "count"},
      {"multicore.fleet.lost_jobs_per_run", "count"},
      {"multicore.fleet.share", "ratio"},
      {"sweep.export.encode_ns_per_scenario", "ns"},
      {"sweep.export.decode_ns_per_scenario", "ns"},
      {"sweep.export.bytes_per_scenario", "bytes"},
      {"sweep.export.share", "ratio"},
      {"sweep.merge.ns_per_scenario", "ns"},
      {"sweep.merge.share", "ratio"},
      {"sweep.runner.glue_share", "ratio"},
      {"serve.latency_p50_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.hit.latency_p50_ms", "ms"},
      {"serve.hit.latency_p99_ms", "ms"},
      {"serve.miss.latency_p50_ms", "ms"},
      {"serve.miss.latency_p99_ms", "ms"},
      {"serve.on_time_share", "ratio"},
      {"serve.cache.hit_share", "ratio"},
      {"serve.cache.evictions", "count"},
      {"serve.cache.lookup_ns", "ns"},
      {"serve.cache.insert_ns", "ns"},
      {"serve.tier.rta_share", "ratio"},
      {"serve.tier.bound_share", "ratio"},
      {"serve.queue.max_depth", "count"},
      {"serve.queue.rejected_full", "count"},
      {"serve.queue.shed_deadline", "count"},
      {"serve.ladder.degrade_steps", "count"},
      {"serve.cross_check_disagreements", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return kList;
}

void normalize_metrics(RunResult& result, bool traced) {
  const auto& list = traced ? per_layer_metrics() : end_to_end_metrics();
  std::unordered_map<std::string, Metric> given;
  for (Metric& m : result.metrics) {
    const auto it = std::find_if(list.begin(), list.end(),
                                 [&](const auto& e) { return e.first == m.name; });
    if (it == list.end()) {
      throw std::logic_error("metric not in the benchmark's list: " + m.name);
    }
    if (m.unit != it->second) {
      throw std::logic_error("metric " + m.name + " reported in " + m.unit +
                             ", declared in " + it->second);
    }
    given[m.name] = std::move(m);
  }
  std::vector<Metric> ordered;
  ordered.reserve(list.size());
  for (const auto& [name, unit] : list) {
    const auto it = given.find(name);
    ordered.push_back(it != given.end() ? it->second : Metric{name, 0.0, unit, 0});
  }
  result.metrics = std::move(ordered);
}

void print_result(const RunResult& result) {
  std::printf("%-40s %18s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : result.metrics) {
    std::printf("%-40s %18.6f %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + exact_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace rtft::perfbench
