// Fig 12 — query QoS under saturation, through the SearchService edge:
//
//  (1) closed-loop capacity measurement: client threads issue
//      back-to-back queries until latency stops buying throughput —
//      that QPS is the service's capacity;
//  (2) open-loop arrival-rate sweep at {0.5, 1.0, 1.5, 2.0}x capacity
//      with SCHEDULED arrival timestamps (latency is measured from the
//      scheduled arrival, not the send, so queueing delay is charged to
//      the service — no coordinated omission), admission control ON:
//      p50/p99, timeout%, degraded%, shed% per rate.
//
// The claim under test: past capacity an admission-controlled service
// keeps p99 bounded by TRADING completeness for latency — every request
// is accounted for as served / degraded / shed / timed out, never
// silently dropped (the "accounted" column must always read yes).
//
//   ./build/bench/bench_fig12_saturation [--smoke] [--shards=N]
//
//   --smoke   small dataset / reduced volumes (CI smoke run)
//   --shards  backend partitions (default 4)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace amici;

namespace {

using Clock = std::chrono::steady_clock;

/// Closed loop: `threads` clients issue back-to-back queries; the
/// aggregate QPS approximates service capacity at full utilization.
double MeasureCapacityQps(SearchService* service,
                          const std::vector<SocialQuery>& queries,
                          int threads, int queries_per_thread) {
  std::atomic<int> errors{0};
  Stopwatch watch;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < queries_per_thread; ++i) {
        SearchRequest request;
        request.query = queries[(static_cast<size_t>(t) * 37 + i) %
                                queries.size()];
        if (!service->Search(request).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed = watch.ElapsedSeconds();
  if (errors.load() != 0) {
    std::fprintf(stderr, "[bench] %d errors in capacity phase!\n",
                 errors.load());
    return 0.0;
  }
  return static_cast<double>(threads) * queries_per_thread / elapsed;
}

/// Everything one open-loop run observed. Every arrival lands in exactly
/// one of served/degraded/shed/failed; `timeouts` marks served or
/// degraded responses that overran their deadline (best-effort partials).
struct SweepOutcome {
  uint64_t issued = 0;
  uint64_t served = 0;    // admitted, ran as asked
  uint64_t degraded = 0;  // ran cheaper
  uint64_t shed = 0;      // refused honestly
  uint64_t failed = 0;    // hard errors (should be 0)
  uint64_t timeouts = 0;
  LatencySummary latency;  // over completed (non-shed) responses
  double achieved_qps = 0.0;
  bool accounted() const {
    return issued == served + degraded + shed + failed;
  }
};

/// Open loop: `total` arrivals at fixed `interval`, each with a scheduled
/// ABSOLUTE timestamp. A pool of workers (sized generously so the arrival
/// process never blocks on a busy client) picks the next arrival, sleeps
/// until its schedule, fires it, and charges the response with
/// (completion - scheduled arrival) — queueing delay included.
SweepOutcome RunOpenLoop(SearchService* service,
                         const std::vector<SocialQuery>& queries,
                         double arrival_qps, int total, double timeout_ms,
                         int workers) {
  SweepOutcome outcome;
  outcome.issued = static_cast<uint64_t>(total);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / arrival_qps));
  const Clock::time_point start = Clock::now();

  std::atomic<int> next{0};
  std::mutex merge_mutex;
  LatencyRecorder recorder;
  std::atomic<uint64_t> served{0}, degraded{0}, shed{0}, failed{0},
      timeouts{0};

  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::vector<double> local_latencies;
      for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const Clock::time_point scheduled = start + interval * i;
        std::this_thread::sleep_until(scheduled);
        SearchRequest request;
        request.query = queries[static_cast<size_t>(i) % queries.size()];
        request.timeout_ms = timeout_ms;
        const auto response = service->Search(request);
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      scheduled)
                .count();
        if (!response.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (response.value().shed) {
          shed.fetch_add(1);
          continue;  // refused: no latency sample, but fully accounted
        }
        if (response.value().degraded) {
          degraded.fetch_add(1);
        } else {
          served.fetch_add(1);
        }
        if (response.value().deadline_exceeded) timeouts.fetch_add(1);
        local_latencies.push_back(latency_ms);
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      for (const double l : local_latencies) recorder.Record(l);
    });
  }
  for (auto& worker : pool) worker.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start)
                             .count();

  outcome.served = served.load();
  outcome.degraded = degraded.load();
  outcome.shed = shed.load();
  outcome.failed = failed.load();
  outcome.timeouts = timeouts.load();
  outcome.latency = recorder.Summarize();
  outcome.achieved_qps = total / elapsed;
  return outcome;
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t shards = bench::ParseShardsFlag(argc, argv, 4);

  bench::PrintBanner(
      "Fig 12: open-loop saturation sweep with admission control "
      "[arrival rate vs p50/p99/timeout/shed]",
      "past capacity, honest shedding + degradation keep p99 bounded; "
      "every arrival is accounted for, zero silent drops");

  bench::ServiceBundle bundle =
      bench::BuildService(smoke ? SmallDataset() : MediumDataset(), shards);
  SearchService* service = bundle.service.get();

  QueryWorkloadConfig workload;
  workload.num_queries = smoke ? 64 : 256;
  workload.k = 10;
  workload.alpha = 0.5;
  workload.seed = 1212;
  const auto queries = GenerateQueries(bundle.workload_view, workload);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }
  bench::WarmService(service, queries.value());

  // --- (1) closed-loop capacity. ---------------------------------------
  const int kCapacityThreads = 4;
  const int kCapacityQueries = smoke ? 250 : 2000;
  const double capacity_qps = MeasureCapacityQps(
      service, queries.value(), kCapacityThreads, kCapacityQueries);
  if (capacity_qps <= 0.0) return 1;
  std::fprintf(stderr, "[bench] capacity ~%.0f qps (closed loop, %d threads)\n",
               capacity_qps, kCapacityThreads);
  std::printf("capacity (closed loop, %d threads): %.0f qps\n\n",
              kCapacityThreads, capacity_qps);

  // --- (2) open-loop sweep with admission control ON. ------------------
  // Pressure-based policy: past ~2x the closed-loop client count the
  // service degrades (the planned strategy under a tighter deadline); past
  // 4x it sheds. The deadline gives stragglers a hard latency ceiling
  // inside the shards.
  const double timeout_ms = smoke ? 250.0 : 100.0;
  AdmissionController::Options policy;
  policy.max_inflight = 32;
  policy.degrade_inflight = 8;
  policy.degrade_timeout_ms = timeout_ms / 2.0;
  service->EnableAdmissionControl(policy);

  // Workers sized so the arrival process outpaces a saturated service:
  // arrivals must never queue on a busy client thread (open loop).
  const int kWorkers = 64;
  TablePrinter table({"rate", "target qps", "achieved", "p50 ms", "p99 ms",
                      "timeout %", "degraded %", "shed %", "accounted"});
  bool all_accounted = true;
  for (const double multiplier : {0.5, 1.0, 1.5, 2.0}) {
    const double rate = std::max(1.0, capacity_qps * multiplier);
    const int total = smoke
                          ? std::min(400, static_cast<int>(rate * 2.0))
                          : static_cast<int>(rate * 5.0);
    const SweepOutcome outcome = RunOpenLoop(
        service, queries.value(), rate, std::max(total, 50), timeout_ms,
        kWorkers);
    all_accounted = all_accounted && outcome.accounted() &&
                    outcome.failed == 0;
    table.AddRow({StringPrintf("%.1fx", multiplier),
                  StringPrintf("%.0f", rate),
                  StringPrintf("%.0f", outcome.achieved_qps),
                  bench::Ms(outcome.latency.p50),
                  bench::Ms(outcome.latency.p99),
                  StringPrintf("%.1f", Pct(outcome.timeouts,
                                           outcome.issued - outcome.shed)),
                  StringPrintf("%.1f", Pct(outcome.degraded, outcome.issued)),
                  StringPrintf("%.1f", Pct(outcome.shed, outcome.issued)),
                  outcome.accounted() && outcome.failed == 0 ? "yes" : "NO"});
    std::fprintf(stderr, "[bench] %.1fx capacity done (%llu shed, %llu "
                 "degraded)\n", multiplier,
                 static_cast<unsigned long long>(outcome.shed),
                 static_cast<unsigned long long>(outcome.degraded));
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\n%s", service->StatsSummary().c_str());

  if (!all_accounted) {
    std::fprintf(stderr, "[bench] ACCOUNTING VIOLATION: some arrivals were "
                 "silently dropped\n");
    return 1;
  }
  return 0;
}
