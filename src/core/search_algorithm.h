#ifndef AMICI_CORE_SEARCH_ALGORITHM_H_
#define AMICI_CORE_SEARCH_ALGORITHM_H_

#include <functional>
#include <vector>

#include "core/social_query.h"
#include "graph/social_graph.h"
#include "index/inverted_index.h"
#include "index/social_index.h"
#include "proximity/proximity_model.h"
#include "storage/item_store.h"
#include "storage/posting_list.h"
#include "topk/threshold_algorithm.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace amici {

class GridIndex;

/// Everything a query algorithm may touch, assembled by the engine per
/// query from one immutable EngineSnapshot. All pointers outlive the call;
/// `store` is a bounded read view (a consistent catalogue prefix even
/// while ingest runs); `proximity` is the (cached) vector for
/// query->user; `filter`, when set, restricts the eligible corpus (geo
/// restriction and/or AND-mode tag matching).
struct QueryContext {
  const SocialGraph* graph = nullptr;
  ItemStoreView store;
  const InvertedIndex* inverted = nullptr;
  const SocialIndex* social = nullptr;
  /// Grid over the indexed items; null when the snapshot has none.
  const GridIndex* grid = nullptr;
  const ProximityVector* proximity = nullptr;
  const SocialQuery* query = nullptr;
  std::function<bool(ItemId)> filter;  // empty = accept everything
  /// Items with id >= index_horizon are not covered by the indexes (they
  /// arrived after the last compaction); the engine scores them separately.
  ItemId index_horizon = 0;
  /// Cooperative cancellation for this query; null = never cancels.
  /// Algorithms probe it per posting-list block / candidate batch (via
  /// CancellationTicker) and, once expired, return their best-effort
  /// partial with SearchStats::truncated set instead of an error.
  const CancellationToken* cancel = nullptr;
};

/// Work counters one query execution produces.
struct SearchStats {
  AggregationStats aggregation;
  /// Candidates examined outside the aggregation engine (scans/merges).
  uint64_t items_considered = 0;
  /// Un-indexed tail items the engine folded in exhaustively after the
  /// algorithm ran (a subset of items_considered) — the per-query cost of
  /// ingest freshness, summed across shards in SearchResponse::stats.
  uint64_t tail_items_scanned = 0;
  /// Proximity-model computations this query caused (0 or 1 per engine;
  /// summed across shards in SearchResponse::stats, where a shared
  /// ProximityProvider keeps the sum at 1 per cache-missed user no matter
  /// the shard count).
  uint64_t proximity_computations = 0;
  /// Queries whose proximity vector came without computing: a shared-
  /// cache hit, or a join on a concurrent shard's in-flight computation.
  uint64_t proximity_cache_hits = 0;
  /// True when cancellation (deadline or external cancel) stopped the
  /// query before it examined every eligible candidate: the results are a
  /// best-effort partial, not the exact top-k. OR-merged across shards.
  bool truncated = false;
};

/// A top-k retrieval strategy. Implementations must be stateless and
/// thread-safe: all per-query state lives on the stack of Search(). The
/// engine keeps one instance per AlgorithmId and labels results with
/// AlgorithmName(id) (core/engine.h), the one table of strategy names.
///
/// Contract: returns the exact top-k (score-descending; ties on score may
/// order arbitrarily) of the *eligible* items with id < index_horizon,
/// where eligible means passing ctx.filter. Scores must equal
/// Scorer::Score bit-for-bit. Items with zero blended score are never
/// returned — the result may therefore hold fewer than k entries when the
/// corpus has fewer than k positive-score matches.
///
/// When ctx.cancel expires mid-run the exactness contract is relaxed:
/// the algorithm stops promptly (within one posting-list block / candidate
/// batch), sets stats->truncated, and returns the best-effort top-k of the
/// candidates it DID score — every returned score still equals
/// Scorer::Score bit-for-bit. A token that never expires must leave
/// results bit-identical to a null token.
class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;

  /// Executes the query described by `ctx`.
  virtual Result<std::vector<ScoredItem>> Search(const QueryContext& ctx,
                                                 SearchStats* stats) const = 0;
};

}  // namespace amici

#endif  // AMICI_CORE_SEARCH_ALGORITHM_H_
