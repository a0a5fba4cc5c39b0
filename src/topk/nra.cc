#include "topk/nra.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace amici {
namespace {

struct Candidate {
  double lower = 0.0;     // sum of partials seen so far
  uint32_t seen_mask = 0;  // bit i set when source i delivered this item
};

}  // namespace

Result<std::vector<ScoredItem>> RunNra(std::span<SortedSource* const> sources,
                                       size_t k, AggregationStats* stats,
                                       const CancellationToken* cancel,
                                       bool* truncated) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (sources.size() > 32) {
    return Status::InvalidArgument("RunNra supports at most 32 sources");
  }
  AggregationStats local_stats;
  std::unordered_map<ItemId, Candidate> candidates;
  std::vector<double> bounds(sources.size(), 0.0);
  CancellationTicker ticker(cancel);
  bool cancelled = false;

  const size_t check_interval = 32 * std::max<size_t>(1, sources.size());
  size_t pulls_since_check = 0;

  auto refresh_bounds = [&]() -> bool {
    bool any_valid = false;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (sources[i]->Valid()) {
        bounds[i] = sources[i]->Current().score;
        any_valid = true;
      } else {
        bounds[i] = 0.0;
      }
    }
    return any_valid;
  };

  // Tests termination; on success fills `result`.
  auto try_terminate = [&](std::vector<ScoredItem>* result) -> bool {
    if (candidates.size() < k) return false;
    // k-th best lower bound.
    std::vector<std::pair<double, ItemId>> lowers;
    lowers.reserve(candidates.size());
    for (const auto& [item, c] : candidates) lowers.push_back({c.lower, item});
    std::nth_element(
        lowers.begin(), lowers.begin() + static_cast<ptrdiff_t>(k - 1),
        lowers.end(), [](const auto& a, const auto& b) {
          if (a.first != b.first) return a.first > b.first;
          return a.second < b.second;
        });
    const double kth_lower = lowers[k - 1].first;

    // Upper bound for an unseen item: every source could still deliver it.
    double unseen_upper = 0.0;
    for (const double b : bounds) unseen_upper += b;
    if (unseen_upper > kth_lower) return false;

    // Upper bound for each seen item outside the provisional top-k.
    std::vector<std::pair<double, ItemId>> top(lowers.begin(),
                                               lowers.begin() +
                                                   static_cast<ptrdiff_t>(k));
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    auto in_top = [&](ItemId item) {
      for (const auto& [score, id] : top) {
        if (id == item) return true;
      }
      return false;
    };
    for (const auto& [item, c] : candidates) {
      if (in_top(item)) continue;
      double upper = c.lower;
      for (size_t i = 0; i < sources.size(); ++i) {
        if ((c.seen_mask & (1u << i)) == 0) upper += bounds[i];
      }
      if (upper > kth_lower) return false;
    }

    result->clear();
    result->reserve(top.size());
    for (const auto& [score, item] : top) {
      result->push_back({item, static_cast<float>(score)});
    }
    return true;
  };

  std::vector<ScoredItem> result;
  while (!cancelled && refresh_bounds()) {
    // One round-robin sweep over the valid sources.
    for (size_t i = 0; i < sources.size(); ++i) {
      if (ticker.Check()) {
        cancelled = true;
        break;
      }
      if (!sources[i]->Valid()) continue;
      const ScoredItem entry = sources[i]->Current();
      sources[i]->Next();
      ++local_stats.sorted_accesses;
      Candidate& c = candidates[entry.item];
      c.lower += entry.score;
      c.seen_mask |= (1u << i);
      ++pulls_since_check;
    }
    if (pulls_since_check >= check_interval) {
      pulls_since_check = 0;
      refresh_bounds();
      if (try_terminate(&result)) {
        if (stats != nullptr) *stats = local_stats;
        return result;
      }
    }
  }

  // Streams exhausted (all lower bounds are exact totals) — or the run
  // was cancelled, in which case the dominance test below may still
  // certify the interim set; only a failed certification is a partial.
  refresh_bounds();
  if (!try_terminate(&result)) {
    if (cancelled && truncated != nullptr) *truncated = true;
    // Fewer than k distinct items exist (or cancelled early); return the
    // best of what was accumulated, best first.
    std::vector<std::pair<double, ItemId>> lowers;
    for (const auto& [item, c] : candidates) lowers.push_back({c.lower, item});
    std::sort(lowers.begin(), lowers.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    result.clear();
    for (size_t i = 0; i < lowers.size() && i < k; ++i) {
      result.push_back({lowers[i].second,
                        static_cast<float>(lowers[i].first)});
    }
  }
  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace amici
