#include "sched/response_time.hpp"

#include "sched/kernel.hpp"

namespace rtft::sched {

RtaResult response_time(const TaskSet& ts, TaskId id, const RtaOptions& opts) {
  RtaView view(ts);
  return analyze_slot(view.slots, view.rank_of(id), opts, false);
}

std::optional<Duration> classic_response_time(const TaskSet& ts, TaskId id,
                                              const RtaOptions& opts) {
  RtaView view(ts);
  return first_job_completion(view.slots, view.rank_of(id), opts);
}

std::vector<RtaResult> response_times(const TaskSet& ts,
                                      const RtaOptions& opts) {
  RtaView view(ts);
  std::vector<RtaResult> out(ts.size());
  for (std::size_t k = 0; k < view.slots.size(); ++k) {
    out[view.slots[k].id] = analyze_slot(view.slots, k, opts, false);
  }
  return out;
}

}  // namespace rtft::sched
