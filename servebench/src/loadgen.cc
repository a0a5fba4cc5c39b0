#include "loadgen.h"

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>


namespace servebench {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

CpuTimes ReadCpuTimes() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

namespace {

/// Sleeps through `windows` windows of `window_ns` from `start`, returning
/// the steal share of each.
std::vector<double> SampleSteal(int64_t start, int64_t window_ns,
                                size_t windows) {
  std::vector<double> steal;
  CpuTimes previous = ReadCpuTimes();
  for (size_t w = 0; w < windows; ++w) {
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(start + window_ns * (w + 1))));
    const CpuTimes now = ReadCpuTimes();
    steal.push_back(StealShare(previous, now));
    previous = now;
  }
  return steal;
}

}  // namespace

ClosedLoopResult RunClosedLoop(size_t threads, double seconds,
                               double window_seconds,
                               const std::function<bool(size_t)>& traced_window,
                               uint64_t first_sequence, const IssueFn& issue) {
  const size_t windows = static_cast<size_t>(seconds / window_seconds);
  const auto window_ns = static_cast<int64_t>(window_seconds * 1e9);
  std::unique_ptr<std::atomic<uint64_t>[]> done(
      new std::atomic<uint64_t>[windows]());
  std::atomic<uint64_t> sequence{first_sequence};
  std::atomic<bool> stop{false};
  const int64_t start = NowNs();

  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto begun =
            static_cast<size_t>((NowNs() - start) / window_ns);
        if (begun >= windows) break;
        issue(t, sequence.fetch_add(1, std::memory_order_relaxed),
              traced_window(begun));
        const auto finished =
            static_cast<size_t>((NowNs() - start) / window_ns);
        if (finished < windows) {
          done[finished].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const std::vector<double> steal = SampleSteal(start, window_ns, windows);
  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  ClosedLoopResult result;
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t n = done[w].load();
    result.window_qps.push_back(static_cast<double>(n) / window_seconds);
    result.window_traced.push_back(traced_window(w));
    result.window_steal.push_back(steal[w]);
    result.completed += n;
  }
  return result;
}

std::vector<int64_t> FixedRateSchedule(double rate_per_s, double seconds) {
  const auto count = static_cast<size_t>(rate_per_s * seconds);
  std::vector<int64_t> schedule(count);
  for (size_t i = 0; i < count; ++i) {
    schedule[i] = static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                       rate_per_s);
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(size_t threads,
                           const std::vector<int64_t>& schedule,
                           double window_seconds, bool traced,
                           uint64_t first_sequence, const IssueFn& issue) {
  OpenLoopResult result;
  result.latency_ms.assign(schedule.size(), 0.0);
  result.lag_ms.assign(schedule.size(), 0.0);
  const auto window_ns = static_cast<int64_t>(window_seconds * 1e9);
  for (const int64_t due : schedule) {
    result.window.push_back(static_cast<size_t>(due / window_ns));
  }
  const size_t windows = result.window.empty() ? 0 : result.window.back() + 1;
  std::atomic<size_t> next{0};
  // A short lead so that every sender is parked before the first arrival.
  const int64_t start = NowNs() + 20'000'000;

  std::vector<std::thread> senders;
  for (size_t t = 0; t < threads; ++t) {
    senders.emplace_back([&, t] {
      TightenTimerSlack();
      for (size_t i = next.fetch_add(1); i < schedule.size();
           i = next.fetch_add(1)) {
        const int64_t due = start + schedule[i];
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const int64_t sent = NowNs();
        issue(t, first_sequence + i, traced);
        const int64_t returned = NowNs();
        result.lag_ms[i] = (sent - due) / 1e6;
        result.latency_ms[i] = (returned - due) / 1e6;
      }
    });
  }
  result.window_steal = SampleSteal(start, window_ns, windows);
  for (std::thread& sender : senders) sender.join();
  return result;
}

}  // namespace servebench
