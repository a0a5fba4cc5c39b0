#ifndef AMICI_CORE_TA_RUNNER_H_
#define AMICI_CORE_TA_RUNNER_H_

#include <vector>

#include "core/search_algorithm.h"
#include "util/status.h"

namespace amici {

/// Which class of sources a pull policy should favour.
enum class PullBias {
  kContent,   // content-first: drain tag lists, touch the social stream rarely
  kSocial,    // social-first: drain the social stream, touch tag lists rarely
  kAdaptive,  // hybrid: greedy max-bound pulls
};

/// The Threshold Algorithm over the blended sources, one instance per
/// PullBias. Exact for every alpha and bias; the bias only decides where
/// sorted accesses go, and therefore how soon the threshold drops below
/// the k-th score:
///  * kContent ("content-first") drains the impact-ordered tag lists and
///    touches the social stream rarely — cheapest at small alpha, where
///    content dominates the blended score (left side of the Fig 4
///    crossover);
///  * kSocial ("social-first") walks the user's neighbourhood in
///    decreasing-proximity order and probes the tag lists rarely —
///    cheapest at large alpha, and the strategy whose advantage grows
///    with social locality (Fig 9);
///  * kAdaptive ("hybrid", the headline algorithm) sends every sorted
///    access to the source holding the largest upper bound, so the pull
///    mix re-balances itself with alpha, tags and neighbourhood shape and
///    tracks the lower envelope of the other two (Fig 4).
class BlendedTa final : public SearchAlgorithm {
 public:
  explicit BlendedTa(PullBias bias) : bias_(bias) {}

  /// Assembles the sources, combines eligibility filters, and runs the TA
  /// engine with a policy matching the bias. Requires the inverted index
  /// to have impact-ordered lists materialized; returns FailedPrecondition
  /// otherwise.
  Result<std::vector<ScoredItem>> Search(const QueryContext& ctx,
                                         SearchStats* stats) const override;

 private:
  PullBias bias_;
};

}  // namespace amici

#endif  // AMICI_CORE_TA_RUNNER_H_
