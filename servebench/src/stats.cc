#include "stats.h"

#include <algorithm>
#include <numeric>

namespace servebench {

size_t NearestRank(size_t n, uint32_t bp) {
  const size_t rank = (static_cast<uint64_t>(bp) * n + 9999) / 10000;
  return std::max<size_t>(rank, 1);
}

size_t SamplesBeyond(size_t n, uint32_t bp) {
  return n == 0 ? 0 : n - NearestRank(n, bp);
}

uint32_t HighestSupportedPercentile(size_t n) {
  for (const uint32_t bp : {kP9999, kP999, kP99, kP90, kP50}) {
    if (n > 0 && SamplesBeyond(n, bp) >= kMinSamplesBeyond) return bp;
  }
  return 0;
}

double Percentile(std::vector<double>* values, uint32_t bp) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  return (*values)[NearestRank(values->size(), bp) - 1];
}

std::vector<double> WindowPercentiles(const std::vector<double>& values,
                                      const std::vector<size_t>& window,
                                      uint32_t bp) {
  std::vector<std::vector<double>> by_window;
  for (size_t i = 0; i < values.size(); ++i) {
    if (window[i] >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(values[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& sample : by_window) {
    if (HighestSupportedPercentile(sample.size()) >= bp) {
      out.push_back(Percentile(&sample, bp));
    }
  }
  return out;
}

std::vector<bool> LeastStolen(const std::vector<double>& steal) {
  std::vector<double> sorted = steal;
  const double limit = Percentile(&sorted, kP25);
  std::vector<bool> keep;
  for (const double share : steal) keep.push_back(share <= limit);
  return keep;
}

std::vector<double> InKeptWindows(const std::vector<double>& values,
                                  const std::vector<size_t>& window,
                                  const std::vector<bool>& keep) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (window[i] < keep.size() && keep[window[i]]) out.push_back(values[i]);
  }
  return out;
}

std::vector<double> Kept(const std::vector<double>& values,
                         const std::vector<bool>& keep) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size() && i < keep.size(); ++i) {
    if (keep[i]) out.push_back(values[i]);
  }
  return out;
}

double Median(std::vector<double> values) {
  return Percentile(&values, kP50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double numerator, double base) {
  return base == 0.0 ? 0.0 : numerator / base;
}

double HitRatio(uint64_t hits, uint64_t joins, uint64_t computations) {
  return Ratio(static_cast<double>(hits + joins),
               static_cast<double>(hits + joins + computations));
}

double BlockSkipRatio(uint64_t decoded, uint64_t skipped) {
  return Ratio(static_cast<double>(skipped),
               static_cast<double>(decoded + skipped));
}

double ResultYield(uint64_t returned, uint64_t scored) {
  return Ratio(static_cast<double>(returned), static_cast<double>(scored));
}

double CoalesceRatio(uint64_t batches_enqueued, uint64_t apply_calls) {
  return Ratio(static_cast<double>(batches_enqueued),
               static_cast<double>(apply_calls));
}

double OverheadFraction(double untraced, double traced) {
  return Ratio(untraced - traced, untraced);
}

double ErrorRate(uint64_t failed, uint64_t shed, uint64_t wrong,
                 uint64_t attempted) {
  return Ratio(static_cast<double>(failed + shed + wrong),
               static_cast<double>(attempted));
}

int64_t CoveredLength(std::vector<Interval> intervals, Interval within) {
  for (Interval& interval : intervals) {
    interval.start = std::max(interval.start, within.start);
    interval.end = std::min(interval.end, within.end);
  }
  std::erase_if(intervals,
                [](const Interval& i) { return i.end <= i.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = within.start;
  for (const Interval& interval : intervals) {
    const int64_t from = std::max(interval.start, reach);
    if (interval.end > from) {
      covered += interval.end - from;
      reach = interval.end;
    }
  }
  return covered;
}

int64_t SelfTime(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.start) - CoveredLength(children, span);
}

}  // namespace servebench
