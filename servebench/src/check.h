#ifndef SERVEBENCH_CHECK_H_
#define SERVEBENCH_CHECK_H_

// Output checks for SearchService responses.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/search_service.h"

namespace servebench {

/// A response is well formed when it ran exactly as asked (not shed,
/// degraded, truncated or partial) and lists at most k positive-score
/// items with non-increasing scores.
bool WellFormed(const amici::SearchResponse& response, size_t k);

/// How a top-k answer compares with the kExhaustive reference.
enum class TopKMatch {
  kIdentical,
  /// Same scores, bit for bit, and the same items except among those
  /// tied with the k-th score: the threshold algorithm may stop before it
  /// meets every item tied at the k-th score (src/topk/threshold_
  /// algorithm.h), so which of them fill the last slots can differ.
  kKthTieDeparture,
  kDifferent,
};

TopKMatch CompareTopK(const std::vector<amici::ScoredItem>& got,
                      const std::vector<amici::ScoredItem>& want, size_t k);

/// True when the lists are identical: same items, same score bits.
bool SameItems(const std::vector<amici::ScoredItem>& a,
               const std::vector<amici::ScoredItem>& b);

/// True when two neighbours with equal float scores are not in id order.
/// The engine ranks by the unrounded score, so items that tie only after
/// rounding to float keep that order rather than the id order
/// SearchResponse's comment promises.
bool DepartsFromIdTieOrder(const std::vector<amici::ScoredItem>& items);

/// Hash of the items and score bits, for same-query-same-answer checks.
uint64_t AnswerHash(const std::vector<amici::ScoredItem>& items);

}  // namespace servebench

#endif  // SERVEBENCH_CHECK_H_
