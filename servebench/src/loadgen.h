#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

// Load generators. Both use at most `threads` sender threads (the
// machine's core count) and call `issue(thread, sequence, traced)` for
// each request; the callback performs and checks the request.

#include <cstdint>
#include <functional>
#include <vector>

namespace servebench {

using IssueFn = std::function<void(size_t thread, uint64_t sequence,
                                   bool traced)>;

int64_t NowNs();

/// Steal and total jiffies of all CPUs, from /proc/stat.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Share of the machine's CPU time that other tenants stole between two
/// readings; 0 when no time passed.
double StealShare(const CpuTimes& from, const CpuTimes& to);

/// Closed loop: every thread issues its next request as soon as the
/// previous one returns, for `seconds`. Completions are counted per
/// window of `window_seconds`; `traced_window(w)` says whether requests
/// started in window w are traced.
struct ClosedLoopResult {
  std::vector<double> window_qps;
  std::vector<bool> window_traced;
  std::vector<double> window_steal;  // StealShare per window
  uint64_t completed = 0;
};
ClosedLoopResult RunClosedLoop(size_t threads, double seconds,
                               double window_seconds,
                               const std::function<bool(size_t)>& traced_window,
                               uint64_t first_sequence, const IssueFn& issue);

/// Arrival offsets (ns from the start) every 1 / rate_per_s seconds over
/// `seconds`. A fixed interval rather than Poisson arrivals: on a shared
/// 4-vCPU machine the bursts of a Poisson schedule turned the machine's
/// own stalls into queueing and made the median latency swing between
/// runs.
std::vector<int64_t> FixedRateSchedule(double rate_per_s, double seconds);

/// Open loop: request i is due at start + schedule[i] whatever happened to
/// earlier requests. Its latency runs from that due time to its return,
/// so a stall is charged to every request it delays; lag is how late the
/// request actually went out. window[i] = schedule[i] / window_seconds.
struct OpenLoopResult {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<size_t> window;
  std::vector<double> window_steal;  // StealShare per window
};
OpenLoopResult RunOpenLoop(size_t threads,
                           const std::vector<int64_t>& schedule,
                           double window_seconds, bool traced,
                           uint64_t first_sequence, const IssueFn& issue);

/// Lowers the calling thread's timer slack so that sleeps wake on time.
void TightenTimerSlack();

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
