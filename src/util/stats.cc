#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace amici {

void OnlineStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  AMICI_DCHECK(q >= 0.0 && q <= 100.0);
  if (sorted.size() == 1) return sorted[0];
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LatencySummary LatencyRecorder::Summarize() const {
  LatencySummary summary;
  if (samples_.empty()) return summary;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  summary.count = sorted.size();
  double sum = 0.0;
  for (const double s : sorted) sum += s;
  summary.mean = sum / static_cast<double>(sorted.size());
  summary.min = sorted.front();
  summary.max = sorted.back();
  summary.p50 = PercentileOfSorted(sorted, 50.0);
  summary.p90 = PercentileOfSorted(sorted, 90.0);
  summary.p99 = PercentileOfSorted(sorted, 99.0);
  return summary;
}

}  // namespace amici
