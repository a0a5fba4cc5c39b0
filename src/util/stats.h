#ifndef AMICI_UTIL_STATS_H_
#define AMICI_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace amici {

/// Numerically stable streaming moments (Welford). O(1) memory; used for
/// aggregate counters where storing samples would be too costly.
class OnlineStats {
 public:
  OnlineStats() = default;

  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Merges another accumulator (parallel reduction).
  void Merge(const OnlineStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile summary of a latency (or any scalar) sample set.
struct LatencySummary {
  uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Collects raw samples and produces percentile summaries. Used by the
/// bench harnesses; stores all samples, so bound the sample count.
class LatencyRecorder {
 public:
  LatencyRecorder() = default;

  void Record(double value) { samples_.push_back(value); }
  void Clear() { samples_.clear(); }
  size_t size() const { return samples_.size(); }

  /// Computes the summary; sorts an internal copy, leaving samples intact.
  LatencySummary Summarize() const;

 private:
  std::vector<double> samples_;
};

/// Linear-interpolation percentile of a *sorted* sample vector,
/// q in [0, 100].
double PercentileOfSorted(const std::vector<double>& sorted, double q);

}  // namespace amici

#endif  // AMICI_UTIL_STATS_H_
