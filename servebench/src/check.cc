#include "check.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"

namespace servebench {

using amici::ScoredItem;

namespace {

bool SameScore(const ScoredItem& a, const ScoredItem& b) {
  return std::bit_cast<uint32_t>(a.score) == std::bit_cast<uint32_t>(b.score);
}

std::vector<amici::ItemId> SortedIds(const std::vector<ScoredItem>& items,
                                     size_t from) {
  std::vector<amici::ItemId> ids;
  for (size_t i = from; i < items.size(); ++i) ids.push_back(items[i].item);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

bool WellFormed(const amici::SearchResponse& response, size_t k) {
  if (response.shed || response.degraded || response.deadline_exceeded ||
      response.stats.truncated || response.shards_failed != 0 ||
      response.shards_abandoned != 0 || response.items.size() > k) {
    return false;
  }
  for (size_t i = 0; i < response.items.size(); ++i) {
    if (!(response.items[i].score > 0.0f)) return false;
    if (i > 0 && response.items[i - 1].score < response.items[i].score) {
      return false;
    }
  }
  return true;
}

TopKMatch CompareTopK(const std::vector<ScoredItem>& got,
                      const std::vector<ScoredItem>& want, size_t k) {
  if (got.size() != want.size()) return TopKMatch::kDifferent;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameScore(got[i], want[i])) return TopKMatch::kDifferent;
  }
  if (SameItems(got, want)) return TopKMatch::kIdentical;
  // Only a full answer has a k-th score whose ties a search may cut.
  if (got.size() != k || k == 0) return TopKMatch::kDifferent;
  size_t group = got.size() - 1;
  while (group > 0 && SameScore(got[group - 1], got.back())) --group;
  for (size_t i = 0; i < group; ++i) {
    if (got[i].item != want[i].item) return TopKMatch::kDifferent;
  }
  // The tied slots must still hold distinct items, none of them listed
  // above the tie.
  const std::vector<amici::ItemId> tied = SortedIds(got, group);
  if (std::adjacent_find(tied.begin(), tied.end()) != tied.end()) {
    return TopKMatch::kDifferent;
  }
  for (size_t i = 0; i < group; ++i) {
    if (std::binary_search(tied.begin(), tied.end(), got[i].item)) {
      return TopKMatch::kDifferent;
    }
  }
  return TopKMatch::kKthTieDeparture;
}

bool SameItems(const std::vector<ScoredItem>& a,
               const std::vector<ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || !SameScore(a[i], b[i])) return false;
  }
  return true;
}

bool DepartsFromIdTieOrder(const std::vector<ScoredItem>& items) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1].score == items[i].score &&
        items[i - 1].item > items[i].item) {
      return true;
    }
  }
  return false;
}

uint64_t AnswerHash(const std::vector<ScoredItem>& items) {
  uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (const ScoredItem& item : items) {
    hash = amici::HashCombine(hash, item.item);
    hash = amici::HashCombine(hash, std::bit_cast<uint32_t>(item.score));
  }
  return hash;
}

}  // namespace servebench
