#ifndef AMICI_GEO_GEO_SOCIAL_H_
#define AMICI_GEO_GEO_SOCIAL_H_

#include <vector>

#include "core/search_algorithm.h"
#include "geo/grid_index.h"

namespace amici {

/// Geo-driven execution of geo-social queries: instead of filtering a
/// content- or social-ordered stream by the radius predicate, enumerate
/// the radius via the grid index first and score only those candidates.
/// Wins when the radius is selective (few items inside), loses to the
/// filtered TA algorithms as the radius grows — the Fig 8 crossover.
///
/// Requires the query to carry a geo filter and the context to carry a
/// grid index (ctx.grid, published with the engine snapshot); returns
/// FailedPrecondition otherwise.
class GeoGridScan final : public SearchAlgorithm {
 public:
  GeoGridScan() = default;

  Result<std::vector<ScoredItem>> Search(const QueryContext& ctx,
                                         SearchStats* stats) const override;
};

}  // namespace amici

#endif  // AMICI_GEO_GEO_SOCIAL_H_
