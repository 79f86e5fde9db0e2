// rtft_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload and prints its metrics; the last stdout line is the
// JSON result. Exit 0 when every correctness gate held, 1 when one
// failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: rtft_e2e --workload sweep-pinned|sweep-failover|"
               "admission-mixed --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtft::perfbench;
  std::string workload;
  RunSettings settings;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, settings.seed)) usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) {
        usage("--seconds takes an integer in [1, 600]");
      }
      settings.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      settings.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }

  RunResult result;
  try {
    if (workload == "sweep-pinned") {
      result = run_sweep_workload(sweep_pinned_workload(), settings);
    } else if (workload == "sweep-failover") {
      result = run_sweep_workload(sweep_failover_workload(), settings);
    } else if (workload == "admission-mixed") {
      result = run_admission_workload(settings);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (result.correct) {
    normalize_metrics(result, settings.trace);
  } else {
    result.metrics.clear();  // numbers from a run that failed its gates.
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
