#ifndef AMICI_CORE_MERGE_SCAN_H_
#define AMICI_CORE_MERGE_SCAN_H_

#include <vector>

#include "core/search_algorithm.h"

namespace amici {

/// The classical IR baseline: enumerate candidates from the compressed
/// document-ordered posting lists, then score each candidate exactly.
///
///  * kAny: multi-way union over the query tags' lists, plus the social
///    candidates (own + proximate users' items), since an item with zero
///    content score can still rank on social score alone.
///  * kAll: leapfrog intersection driven by PostingList skip pointers —
///    the hard AND filter makes the intersection exactly the eligible set.
///
/// Unlike ExhaustiveScan it never touches items outside the candidate
/// set, but unlike the TA family it cannot stop early.
class MergeScan final : public SearchAlgorithm {
 public:
  MergeScan() = default;

  Result<std::vector<ScoredItem>> Search(const QueryContext& ctx,
                                         SearchStats* stats) const override;
};

}  // namespace amici

#endif  // AMICI_CORE_MERGE_SCAN_H_
