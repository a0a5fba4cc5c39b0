#ifndef AMICI_CORE_EXHAUSTIVE_SCAN_H_
#define AMICI_CORE_EXHAUSTIVE_SCAN_H_

#include <vector>

#include "core/search_algorithm.h"

namespace amici {

/// The naive baseline: score every item in the catalogue and keep the k
/// best. O(catalogue) per query regardless of k or alpha. It is also the
/// correctness oracle every other algorithm is tested against.
class ExhaustiveScan final : public SearchAlgorithm {
 public:
  ExhaustiveScan() = default;

  Result<std::vector<ScoredItem>> Search(const QueryContext& ctx,
                                         SearchStats* stats) const override;
};

}  // namespace amici

#endif  // AMICI_CORE_EXHAUSTIVE_SCAN_H_
