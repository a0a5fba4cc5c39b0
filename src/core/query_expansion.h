#ifndef AMICI_CORE_QUERY_EXPANSION_H_
#define AMICI_CORE_QUERY_EXPANSION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "index/social_index.h"
#include "proximity/proximity_model.h"
#include "storage/item_store.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

/// A tag proposed for query expansion, with its evidence weight.
struct TagSuggestion {
  TagId tag;
  /// Accumulated proximity-weighted co-occurrence evidence (not
  /// normalized; useful for ordering and thresholding).
  float weight;
  /// Number of co-occurring items backing the suggestion — the count
  /// min_cooccurrence thresholds. Carried in the result so that a
  /// multi-shard service can union-merge per-shard suggestions and apply
  /// the threshold on the GLOBAL count.
  uint32_t support = 0;
};

/// Knobs for SuggestQueryTags.
struct QueryExpansionOptions {
  /// Maximum suggestions returned.
  size_t max_suggestions = 5;
  /// How many of the closest users (the querying user counts as the
  /// closest) contribute evidence.
  size_t max_users = 50;
  /// Tags must co-occur with a seed tag on at least this many items.
  uint32_t min_cooccurrence = 1;
};

/// "With a little help from my friends", applied to the query itself:
/// proposes tags that co-occur with the seed tags *on the items of the
/// user's social neighbourhood*, weighted by the owner's proximity. The
/// social circle acts as a personalized thesaurus — "beach" suggests
/// "surf" for one user and "volleyball" for another.
///
/// Evidence model: for every item of the self + top `max_users` proximate
/// users that carries >= 1 seed tag, each non-seed tag on that item earns
/// proximity(owner) weight (self counts 1.0). Suggestions are returned by
/// decreasing weight (ties by ascending tag id).
///
/// `seed_tags` must be sorted and unique (NormalizeQuery does this).
Result<std::vector<TagSuggestion>> SuggestQueryTags(
    ItemStoreView store, const SocialIndex& social,
    const ProximityVector& proximity, UserId user,
    std::span<const TagId> seed_tags, const QueryExpansionOptions& options);

}  // namespace amici

#endif  // AMICI_CORE_QUERY_EXPANSION_H_
