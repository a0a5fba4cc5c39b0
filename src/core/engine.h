#ifndef AMICI_CORE_ENGINE_H_
#define AMICI_CORE_ENGINE_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/engine_snapshot.h"
#include "core/engine_stats.h"
#include "core/query_expansion.h"
#include "core/search_algorithm.h"
#include "core/social_query.h"
#include "geo/grid_index.h"
#include "graph/social_graph.h"
#include "index/index_builder.h"
#include "persist/snapshot.h"
#include "proximity/proximity_model.h"
#include "proximity/proximity_provider.h"
#include "proximity_service/overlay_fold_policy.h"
#include "storage/item_store.h"
#include "storage/tag_dictionary.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace amici {

/// Names the execution strategy for one query.
enum class AlgorithmId {
  kExhaustive,
  kMergeScan,
  kContentFirst,
  kSocialFirst,
  kHybrid,
  kGeoGrid,
  /// Sentinel: number of strategies. Keep last; the engine sizes its
  /// algorithm table from it, so a new strategy cannot silently leave a
  /// null slot.
  kNumAlgorithms,
};

inline constexpr size_t kNumAlgorithms =
    static_cast<size_t>(AlgorithmId::kNumAlgorithms);

/// Stable display name of `id` ("hybrid", "merge-scan", ...).
std::string_view AlgorithmName(AlgorithmId id);

/// The strategy whose AlgorithmName is exactly `name`; nullopt for any
/// other string. Reads the same table as AlgorithmName.
std::optional<AlgorithmId> ParseAlgorithm(std::string_view name);

/// The strategy a query runs when the caller names none. Every strategy
/// returns the same exact top-k, so the choice changes only the cost:
/// a conjunctive (kAll) query with tags goes to kExhaustive, whose kAll
/// branch walks just the rarest tag's posting list with block-max
/// skipping (hybrid TA would drain every list whenever fewer than k
/// items match); every other query goes to kHybrid.
AlgorithmId PlanAlgorithm(const SocialQuery& query);

/// How Compact() folds the tail into the indexes.
///
///  * kAuto — incremental (LSM-style) merge when the tail is small
///    relative to the indexed catalogue (see
///    Options::merge_max_tail_ratio), full rebuild otherwise. The merge
///    rebuilds only tail-touched posting lists / owner buckets / grid
///    cells, structurally sharing everything else with the previous
///    snapshot: O(tail + touched lists) instead of O(catalogue).
///  * kAlwaysRebuild / kAlwaysMerge — force one path; used by the
///    compaction-invariance tests (a rebuild twin proving the merge path
///    bit-identical) and by benches comparing the two costs.
///
/// Both paths produce bit-identical query results — see
/// tests/core/compaction_invariance_test.cc.
enum class CompactionMode {
  kAuto,
  kAlwaysRebuild,
  kAlwaysMerge,
};

/// The outcome of one engine query.
struct QueryResult {
  /// Best-first (score-descending) results, at most k entries.
  std::vector<ScoredItem> items;
  /// Work counters from the executing algorithm (plus the tail merge).
  SearchStats stats;
  /// End-to-end latency, including proximity computation on cache miss.
  double elapsed_ms = 0.0;
  /// Which algorithm executed.
  std::string_view algorithm;
};

/// The public facade: owns the item catalogue and the algorithm suite,
/// CONSUMES a ProximityProvider (which owns the graph, the proximity
/// model and the score cache — possibly shared with other engines), and
/// publishes the query-visible state (graph, indexes, grid, store view)
/// as immutable EngineSnapshot generations.
///
/// Thread-safety — the snapshot read/write split:
///  * Query / QueryBatch / QueryDiverse / SuggestTags are safe from any
///    number of threads, concurrently with each other AND with all
///    mutators. Each query pins one snapshot (lock-free load) and runs
///    against that consistent state to completion.
///  * AddItem, AddFriendship, RemoveFriendship and Compact are safe
///    concurrently with queries. Mutators serialize among themselves on an
///    internal writer mutex; Compact additionally runs its expensive index
///    build OFF the writer lock (from a pinned snapshot) so ingest stalls
///    only for the final pointer swap.
///
/// Incremental ingest follows the main-index + tail design: AddItem
/// appends to an un-indexed, pointer-stable tail that queries scan
/// exhaustively (exactness is never sacrificed); Compact() folds the tail
/// into freshly built indexes and publishes them as a new generation.
class SocialSearchEngine {
 public:
  struct Options {
    /// The graph + proximity surface this engine consumes. When null,
    /// Build(graph, store, options) wraps the passed graph in a PRIVATE
    /// ProximityProvider built from the knobs below — the
    /// single-engine deployment. Services that run several engines pass
    /// ONE shared provider here instead, so the graph and the score
    /// cache exist once, not once per shard.
    std::shared_ptr<ProximityProvider> proximity_provider;
    /// Social proximity model for the private provider; defaults to
    /// forward-push PPR (restart 0.15, epsilon 1e-4) when null. Ignored
    /// when proximity_provider is set.
    std::shared_ptr<const ProximityModel> proximity_model;
    /// LRU capacity of the private provider's proximity cache. Ignored
    /// when proximity_provider is set.
    size_t proximity_cache_capacity = 4096;
    /// Hottest users the private provider re-warms after a graph
    /// generation bump (0 disables). Ignored when proximity_provider is
    /// set.
    size_t proximity_warm_top_n = 16;
    /// When the private provider folds its delta-overlay patch into a
    /// fresh base CSR. Ignored when proximity_provider is set.
    AdaptiveOverlayFoldPolicy proximity_fold_policy;
    /// Posting-list / impact-list knobs (ablation surface).
    InvertedIndex::Options index_options;
    /// Geo grid cell size in degrees (used when the store has geo items).
    double geo_cell_size_deg = 0.25;
    /// Compact() path selection (see CompactionMode).
    CompactionMode compaction_mode = CompactionMode::kAuto;
    /// kAuto merges when tail_items <= ratio * indexed_items (and an
    /// indexed base exists); a bigger tail pays the one-off rebuild,
    /// whose cost the now-large catalogue amortizes.
    double merge_max_tail_ratio = 0.25;
  };

  /// Builds an engine over `graph` and `store` (both consumed). The graph
  /// is wrapped in a private ProximityProvider;
  /// options.proximity_provider must be null on this overload (a shared
  /// provider already owns its graph — use the overload below).
  static Result<std::unique_ptr<SocialSearchEngine>> Build(SocialGraph graph,
                                                           ItemStore store,
                                                           Options options);

  /// Builds an engine over `store` that CONSUMES
  /// options.proximity_provider (required) for its graph and proximity —
  /// the multi-engine deployment where one provider is shared across
  /// shards.
  static Result<std::unique_ptr<SocialSearchEngine>> Build(ItemStore store,
                                                           Options options);

  /// Reopens one shard of a service snapshot: maps and verifies the
  /// segments dir/MANIFEST-<generation> names (the generation the
  /// service root pins), reconstructs the catalogue, views the posting
  /// payloads zero-copy in the mapped files, and restores the
  /// indexes/grid without any index build. options.proximity_provider is
  /// required (InvalidArgument otherwise): the service restores the one
  /// shared provider from its root graph segment and hands it to every
  /// shard. Whole deployments reopen through SearchService::OpenSnapshot.
  static Result<std::unique_ptr<SocialSearchEngine>> OpenSnapshot(
      const std::string& dir, uint64_t generation, Options options,
      const persist::SnapshotOpenOptions& open_options =
          persist::SnapshotOpenOptions());

  /// The ONE mapping from engine options to a ProximityProvider over
  /// `graph` (model, cache capacity, warm-over and fold-policy knobs).
  /// Build(graph, store, options) uses it for the private provider, and
  /// multi-engine services use it to construct the provider they share —
  /// same knobs, same behavior, one place to extend.
  static std::shared_ptr<ProximityProvider> MakeProximityProvider(
      SocialGraph graph, const Options& options);

  /// Executes `query` with the planned strategy (PlanAlgorithm).
  Result<QueryResult> Query(const SocialQuery& query);

  /// Executes `query` with a specific strategy. kGeoGrid requires a geo
  /// filter on the query and geo items covered by the current indexes.
  ///
  /// `cancel` (optional, null = never cancels) is probed cooperatively
  /// inside the algorithm (per posting-list block / candidate batch) and
  /// in the tail fold; once expired the query returns promptly with the
  /// best-effort partial and stats.truncated set. A token that never
  /// fires leaves results bit-identical to passing null.
  Result<QueryResult> Query(const SocialQuery& query, AlgorithmId algorithm,
                            const CancellationToken* cancel = nullptr);

  /// Executes a batch concurrently on `pool` (inline when pool is null).
  /// Results are positionally aligned with `queries`. Queries are
  /// thread-safe, so the batch only needs the pool for parallelism.
  std::vector<Result<QueryResult>> QueryBatch(
      std::span<const SocialQuery> queries, AlgorithmId algorithm,
      ThreadPool* pool);

  /// Owner-diversified top-k: at most `max_per_owner` results from any
  /// single owner, selected greedily in score order over the whole
  /// eligible corpus (exact — implemented by iterative deepening of the
  /// fetch size, so a feed cannot be monopolized by one prolific friend).
  /// `cancel` stops the deepening between rounds as well as inside them.
  Result<QueryResult> QueryDiverse(const SocialQuery& query,
                                   size_t max_per_owner, AlgorithmId algorithm,
                                   const CancellationToken* cancel = nullptr);

  /// Suggests expansion tags for `seed_tags` (sorted, unique) from the
  /// user's social neighbourhood — the personalized-thesaurus feature
  /// (see query_expansion.h). Thread-safe alongside queries and mutators.
  Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options = QueryExpansionOptions());

  /// Appends a new item to the un-indexed tail and publishes a snapshot
  /// that makes it queryable. Cheap (columnar append + pointer swap);
  /// safe concurrently with queries and other mutators.
  Result<ItemId> AddItem(const Item& item);

  /// Appends a whole batch under ONE writer-lock acquisition and ONE
  /// snapshot publish (cuts snapshot-allocation traffic N-fold versus N
  /// AddItem calls — the first step of the batched-ingest roadmap item).
  /// Ids are assigned in batch order; every item is validated before
  /// anything is appended, so the batch is all-or-nothing.
  Result<std::vector<ItemId>> AddItems(std::span<const Item> items);

  /// Adds / removes a friendship edge THROUGH the proximity provider
  /// (which owns the graph): the provider validates, patches the two
  /// endpoint rows into its delta overlay (O(deg)) and publishes a new
  /// graph generation, and this engine adopts it into a
  /// fresh snapshot; in-flight queries finish on the generation they
  /// pinned. RemoveFriendship returns NotFound when the edge does not
  /// exist; AddFriendship returns AlreadyExists for duplicates; self
  /// edges and out-of-range endpoints are InvalidArgument.
  ///
  /// NOTE with a SHARED provider: only THIS engine adopts the new
  /// generation here. The owning service must call SyncGraph() on its
  /// other engines (see SearchService::AddFriendship).
  Status AddFriendship(UserId u, UserId v);
  Status RemoveFriendship(UserId u, UserId v);

  /// Adopts the provider's current graph generation into a new snapshot
  /// (no-op when already current). Cheap: one snapshot copy + pointer
  /// swap; the indexes are graph-independent and are reused as-is.
  Status SyncGraph();

  /// Folds the tail into the indexes — incrementally (merging tail
  /// postings into shared list handles) or by full rebuild, per
  /// Options::compaction_mode. Either way the build runs off the writer
  /// lock against a pinned snapshot, so queries AND ingest proceed while
  /// it works; only the final publish takes the writer mutex. Items
  /// ingested while the build runs simply stay in the tail until the
  /// next Compact. `outcome`, when non-null, receives what was done
  /// (mode, items merged, lists touched, wall time).
  Status Compact(CompactionOutcome* outcome = nullptr);

  /// Compact with a forced mode, overriding Options::compaction_mode for
  /// this one call — the invariance-test / bench surface for comparing
  /// the merge and rebuild paths on identical state.
  Status Compact(CompactionMode mode, CompactionOutcome* outcome);

  /// Writes this shard's segments + MANIFEST-<generation> for the current
  /// snapshot into `dir` WITHOUT committing anything — the service writes
  /// every shard's files first and then commits one root manifest and
  /// CURRENT over all of them (SearchService::SaveSnapshot). Incremental
  /// against `prev` (the shard's previous manifest) when the current
  /// state extends it. Callers serialize saves themselves (the service
  /// writer mutex).
  Result<persist::Manifest> WriteSnapshotFiles(
      const std::string& dir, uint64_t generation,
      const persist::Manifest* prev, persist::SnapshotSaveReport* report);

  /// The current snapshot (lock-free load). Holding the returned pointer
  /// pins this generation's graph, indexes and grid for as long as the
  /// caller keeps it. The store view inside points into the engine-owned
  /// catalogue, so the ENGINE must outlive any pinned snapshot.
  std::shared_ptr<const EngineSnapshot> snapshot() const {
    return snapshot_.load();
  }

  /// Items not yet covered by the indexes (in the current snapshot).
  size_t unindexed_items() const { return snapshot()->unindexed_items(); }

  /// Accessors into the CURRENT snapshot. The references stay valid only
  /// while no concurrent writer publishes a new generation — single-thread
  /// callers (tests, benches, examples) are fine; concurrent callers
  /// should pin snapshot() instead.
  const SocialGraph& graph() const { return *snapshot()->graph; }
  const InvertedIndex& inverted_index() const {
    return snapshot()->indexes->inverted;
  }
  const SocialIndex& social_index() const {
    return snapshot()->indexes->social;
  }
  const GridIndex& grid_index() const {
    static const GridIndex kEmptyGrid;
    const auto snap = snapshot();
    return snap->grid ? *snap->grid : kEmptyGrid;
  }
  const IndexBuildStats& last_build_stats() const {
    return snapshot()->indexes->stats;
  }

  const ItemStore& store() const { return store_; }
  const ProximityModel& proximity_model() const {
    return proximity_->model();
  }
  /// The graph + proximity surface this engine consumes (possibly shared
  /// with other engines).
  ProximityProvider& proximity() const { return *proximity_; }
  std::shared_ptr<ProximityProvider> shared_proximity() const {
    return proximity_;
  }
  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

 private:
  SocialSearchEngine(ItemStore store, Options options);

  /// Builds indexes + grid over `view` and returns the snapshot holding
  /// them (graph/version taken from `graph`/`graph_version`).
  Result<std::shared_ptr<const EngineSnapshot>> BuildSnapshot(
      std::shared_ptr<const SocialGraph> graph, uint64_t graph_version,
      ItemStoreView view) const;

  /// Incremental counterpart of BuildSnapshot for the Compact merge
  /// path: folds pinned's un-indexed tail into pinned's indexes/grid,
  /// sharing untouched lists, and reports the touched-list counts into
  /// `outcome`.
  Result<std::shared_ptr<const EngineSnapshot>> MergeSnapshot(
      const EngineSnapshot& pinned, CompactionOutcome* outcome) const;

  const SearchAlgorithm* AlgorithmFor(AlgorithmId id) const;

  /// Fills the algorithm table (one strategy per AlgorithmId slot) —
  /// shared by Build and OpenSnapshot.
  void RegisterAlgorithms();

  /// Atomically replaces the published snapshot. Callers must hold
  /// writer_mutex_.
  void PublishLocked(std::shared_ptr<const EngineSnapshot> next);

  ItemStore store_;
  Options options_;

  /// Owns the graph, the model, and the score cache; shared across
  /// engines when the service layer passes one provider to all shards.
  std::shared_ptr<ProximityProvider> proximity_;
  std::vector<std::unique_ptr<SearchAlgorithm>> algorithms_;  // by AlgorithmId
  EngineStats stats_;

  /// Serializes mutators (AddItem, friendship edits, snapshot publishes).
  /// Never held while a query executes.
  std::mutex writer_mutex_;
  AtomicSharedPtr<const EngineSnapshot> snapshot_;
};

/// The next fetch depth of owner-diversified iterative deepening
/// (QueryDiverse, and the service's diversified merge): doubles,
/// saturating instead of wrapping — a depth beyond any corpus exhausts
/// it, which ends the deepening.
inline size_t NextDiverseFetchDepth(size_t fetch_k) {
  return fetch_k > std::numeric_limits<size_t>::max() / 2
             ? std::numeric_limits<size_t>::max()
             : fetch_k * 2;
}

}  // namespace amici

#endif  // AMICI_CORE_ENGINE_H_
