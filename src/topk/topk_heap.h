#ifndef AMICI_TOPK_TOPK_HEAP_H_
#define AMICI_TOPK_TOPK_HEAP_H_

#include <cstddef>
#include <vector>

#include "storage/posting_list.h"
#include "util/ids.h"

namespace amici {

/// Bounded top-k accumulator: keeps the k best (score, item) pairs seen so
/// far in a size-k min-heap. Ordering is score-descending with ascending
/// item id as the deterministic tie-break, so results are reproducible
/// across algorithms and runs.
class TopKHeap {
 public:
  /// Requires k >= 1. Any k is safe: memory follows the candidates
  /// pushed, not k.
  explicit TopKHeap(size_t k);

  /// Offers a candidate; returns true iff it entered the heap.
  bool Push(ItemId item, double score);

  /// True once k candidates are held.
  bool full() const { return heap_.size() == k_; }
  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }

  /// Current k-th best score — the score a new candidate must beat.
  /// Returns -infinity until the heap is full, so early-termination tests
  /// are trivially false while results are still missing.
  double KthScore() const;

  /// Extracts results ordered best-first. The heap is left empty.
  std::vector<ScoredItem> TakeSorted();

 private:
  struct Entry {
    double score;
    ItemId item;
  };

  /// True if a orders strictly after b (a is "worse"): min-heap on score,
  /// max on item id for equal scores.
  static bool Worse(const Entry& a, const Entry& b);

  size_t k_;
  std::vector<Entry> heap_;  // std::push_heap with Better-on-top inverted
};

}  // namespace amici

#endif  // AMICI_TOPK_TOPK_HEAP_H_
