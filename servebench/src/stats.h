#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

// Summary arithmetic shared by every servebench metric: percentiles and
// the rule that picks which tail percentile a sample supports, ratios
// with an explicit base, and span self time.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// Percentiles are given in basis points (p99 = 9900) so that the
/// nearest-rank arithmetic stays in integers.
inline constexpr uint32_t kP25 = 2500;
inline constexpr uint32_t kP50 = 5000;
inline constexpr uint32_t kP90 = 9000;
inline constexpr uint32_t kP99 = 9900;
inline constexpr uint32_t kP999 = 9990;
inline constexpr uint32_t kP9999 = 9999;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `bp` among `n` samples:
/// ceil(bp * n / 10000), at least 1. Requires n > 0.
size_t NearestRank(size_t n, uint32_t bp);

/// Samples strictly above the nearest-rank sample of `bp`.
size_t SamplesBeyond(size_t n, uint32_t bp);

/// Highest percentile of {p50, p90, p99, p99.9, p99.99} with at least
/// kMinSamplesBeyond samples beyond it; 0 when even p50 is unsupported.
uint32_t HighestSupportedPercentile(size_t n);

/// Nearest-rank percentile; sorts `values` in place. 0 when empty.
double Percentile(std::vector<double>* values, uint32_t bp);

/// Percentile `bp` within each window, where window[i] is the window of
/// values[i]; windows whose sample does not support `bp` (see
/// HighestSupportedPercentile) are left out.
std::vector<double> WindowPercentiles(const std::vector<double>& values,
                                      const std::vector<size_t>& window,
                                      uint32_t bp);

/// Marks the windows in which other tenants of the machine stole no more
/// CPU time than in the window at the 25th percentile of steal: at least a
/// quarter of them, and all windows free of steal. A slower program is
/// slower in every window; a window the machine took away from the
/// program says nothing about it.
std::vector<bool> LeastStolen(const std::vector<double>& steal);

/// The values whose window (window[i] for values[i]) `keep` marks true.
std::vector<double> InKeptWindows(const std::vector<double>& values,
                                  const std::vector<size_t>& window,
                                  const std::vector<bool>& keep);

/// The entries of `values` that `keep` marks true.
std::vector<double> Kept(const std::vector<double>& values,
                         const std::vector<bool>& keep);

/// Median of a copy of `values`; 0 when empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// numerator / base, or 0 when the base is 0 (nothing was attempted, so
/// nothing was wasted or gained).
double Ratio(double numerator, double base);

// Ratios with their bases. Each is 0 when its base is 0.

/// Lookups answered without computing: (hits + joins) / (hits + joins +
/// computations).
double HitRatio(uint64_t hits, uint64_t joins, uint64_t computations);
/// Blocks passed over undecoded: skipped / (decoded + skipped).
double BlockSkipRatio(uint64_t decoded, uint64_t skipped);
/// Items returned per candidate scored.
double ResultYield(uint64_t returned, uint64_t scored);
/// Batches enqueued per AddItems call the writer thread issued.
double CoalesceRatio(uint64_t batches_enqueued, uint64_t apply_calls);
/// Throughput lost to tracing, relative to the untraced throughput.
double OverheadFraction(double untraced, double traced);
/// (failed + shed + wrong) / attempted.
double ErrorRate(uint64_t failed, uint64_t shed, uint64_t wrong,
                 uint64_t attempted);

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the part of `within` covered by the union of `intervals`
/// (overlapping children are counted once; parts outside `within` are
/// clipped).
int64_t CoveredLength(std::vector<Interval> intervals, Interval within);

/// A span's self time: its duration minus what its children cover.
int64_t SelfTime(Interval span, const std::vector<Interval>& children);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
