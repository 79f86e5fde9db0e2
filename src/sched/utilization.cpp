#include "sched/utilization.hpp"

#include <cmath>

#include "common/math.hpp"

namespace rtft::sched {

LoadVerdict load_test(const TaskSet& ts) {
  LoadSum load;
  for (const TaskParams& t : ts) load.add(t.cost.count(), t.period.count());
  const int cmp = load.compare_to_one();
  if (cmp > 0) return LoadVerdict::kAboveOne;
  if (cmp == 0) return LoadVerdict::kExactlyOne;
  return LoadVerdict::kBelowOne;
}

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nd = static_cast<double>(n);
  return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool passes_liu_layland(const TaskSet& ts) {
  return ts.utilization() <= liu_layland_bound(ts.size());
}

bool passes_hyperbolic(const TaskSet& ts) {
  double product = 1.0;
  for (const TaskParams& t : ts) product *= t.utilization() + 1.0;
  return product <= 2.0;
}

}  // namespace rtft::sched
