#include "core/engine.h"

#include <iterator>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/exhaustive_scan.h"
#include "core/merge_scan.h"
#include "core/scorer.h"
#include "core/ta_runner.h"
#include "geo/geo_point.h"
#include "geo/geo_social.h"
#include "topk/topk_heap.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace amici {

namespace {

/// Display names, indexed by AlgorithmId.
constexpr std::string_view kAlgorithmNames[] = {
    "exhaustive",   "merge-scan", "content-first",
    "social-first", "hybrid",     "geo-grid",
};
static_assert(std::size(kAlgorithmNames) == kNumAlgorithms,
              "name every AlgorithmId");

}  // namespace

std::string_view AlgorithmName(AlgorithmId id) {
  const auto index = static_cast<size_t>(id);
  return index < kNumAlgorithms ? kAlgorithmNames[index] : "unknown";
}

std::optional<AlgorithmId> ParseAlgorithm(std::string_view name) {
  for (size_t i = 0; i < kNumAlgorithms; ++i) {
    if (kAlgorithmNames[i] == name) return static_cast<AlgorithmId>(i);
  }
  return std::nullopt;
}

AlgorithmId PlanAlgorithm(const SocialQuery& query) {
  return query.mode == MatchMode::kAll && !query.tags.empty()
             ? AlgorithmId::kExhaustive
             : AlgorithmId::kHybrid;
}

SocialSearchEngine::SocialSearchEngine(ItemStore store, Options options)
    : store_(std::move(store)), options_(std::move(options)) {}

std::shared_ptr<ProximityProvider> SocialSearchEngine::MakeProximityProvider(
    SocialGraph graph, const Options& options) {
  ProximityProvider::Options provider_options;
  provider_options.model = options.proximity_model;
  provider_options.cache_capacity = options.proximity_cache_capacity;
  provider_options.warm_top_n = options.proximity_warm_top_n;
  provider_options.fold_policy = options.proximity_fold_policy;
  return std::make_shared<ProximityProvider>(std::move(graph),
                                             std::move(provider_options));
}

Result<std::unique_ptr<SocialSearchEngine>> SocialSearchEngine::Build(
    SocialGraph graph, ItemStore store, Options options) {
  if (options.proximity_provider != nullptr) {
    return Status::InvalidArgument(
        "a shared ProximityProvider already owns its graph; use "
        "Build(store, options) to consume it");
  }
  options.proximity_provider =
      MakeProximityProvider(std::move(graph), options);
  return Build(std::move(store), std::move(options));
}

Result<std::unique_ptr<SocialSearchEngine>> SocialSearchEngine::Build(
    ItemStore store, Options options) {
  if (options.proximity_provider == nullptr) {
    return Status::InvalidArgument(
        "options.proximity_provider is required (or use the "
        "Build(graph, store, options) overload)");
  }
  // Private constructor: cannot use make_unique.
  std::unique_ptr<SocialSearchEngine> engine(
      new SocialSearchEngine(std::move(store), std::move(options)));
  engine->proximity_ = engine->options_.proximity_provider;

  // Pin the provider's current generation into the initial snapshot.
  const ProximityProvider::GraphView view = engine->proximity_->Acquire();
  AMICI_ASSIGN_OR_RETURN(
      std::shared_ptr<const EngineSnapshot> initial,
      engine->BuildSnapshot(view.graph, view.generation,
                            ItemStoreView(engine->store_)));
  engine->snapshot_.store(std::move(initial));
  engine->RegisterAlgorithms();
  return engine;
}

void SocialSearchEngine::RegisterAlgorithms() {
  algorithms_.resize(kNumAlgorithms);
  algorithms_[static_cast<size_t>(AlgorithmId::kExhaustive)] =
      std::make_unique<ExhaustiveScan>();
  algorithms_[static_cast<size_t>(AlgorithmId::kMergeScan)] =
      std::make_unique<MergeScan>();
  algorithms_[static_cast<size_t>(AlgorithmId::kContentFirst)] =
      std::make_unique<BlendedTa>(PullBias::kContent);
  algorithms_[static_cast<size_t>(AlgorithmId::kSocialFirst)] =
      std::make_unique<BlendedTa>(PullBias::kSocial);
  algorithms_[static_cast<size_t>(AlgorithmId::kHybrid)] =
      std::make_unique<BlendedTa>(PullBias::kAdaptive);
  algorithms_[static_cast<size_t>(AlgorithmId::kGeoGrid)] =
      std::make_unique<GeoGridScan>();
  for (const auto& algorithm : algorithms_) {
    AMICI_CHECK(algorithm != nullptr)
        << "algorithm table has a null slot; register every AlgorithmId";
  }
}

Result<std::unique_ptr<SocialSearchEngine>> SocialSearchEngine::OpenSnapshot(
    const std::string& dir, uint64_t generation, Options options,
    const persist::SnapshotOpenOptions& open_options) {
  if (options.proximity_provider == nullptr) {
    return Status::InvalidArgument(
        "options.proximity_provider is required: a shard snapshot holds no "
        "graph (open whole deployments with SearchService::OpenSnapshot)");
  }
  AMICI_ASSIGN_OR_RETURN(
      persist::LoadedEngineState loaded,
      persist::LoadEngineSnapshot(dir, generation, open_options));
  std::unique_ptr<SocialSearchEngine> engine(
      new SocialSearchEngine(std::move(loaded.store), std::move(options)));
  engine->proximity_ = engine->options_.proximity_provider;
  const ProximityProvider::GraphView view = engine->proximity_->Acquire();
  if (view.graph->num_users() != loaded.manifest.num_users) {
    return Status::Corruption(
        dir + ": provider graph covers " +
        std::to_string(view.graph->num_users()) +
        " users, manifest records " +
        std::to_string(loaded.manifest.num_users));
  }

  // Reassemble the published snapshot WITHOUT an index build: the
  // restored posting lists still view the mapped segment files.
  auto next = std::make_shared<EngineSnapshot>();
  BuiltIndexes built{
      InvertedIndex::Restore(std::move(loaded.doc_ordered),
                             std::move(loaded.impact_ordered),
                             loaded.manifest.has_impact_ordered != 0),
      SocialIndex::Restore(std::move(loaded.social_buckets)),
      IndexBuildStats{}};
  next->indexes = std::make_shared<const BuiltIndexes>(std::move(built));
  if (loaded.manifest.has_grid != 0) {
    // The grid views the ENGINE-owned store (for the exact geo
    // post-filter), so it must be restored after the store has moved
    // into place.
    next->grid = std::make_shared<const GridIndex>(GridIndex::Restore(
        loaded.manifest.grid_cell_size_deg, std::move(loaded.grid_cells),
        ItemStoreView(engine->store_)));
  }
  next->graph = view.graph;
  next->graph_version = view.generation;
  next->store = ItemStoreView(engine->store_);
  next->index_horizon = static_cast<ItemId>(loaded.manifest.index_horizon);
  engine->snapshot_.store(
      std::shared_ptr<const EngineSnapshot>(std::move(next)));
  engine->RegisterAlgorithms();
  return engine;
}

Result<std::shared_ptr<const EngineSnapshot>>
SocialSearchEngine::BuildSnapshot(std::shared_ptr<const SocialGraph> graph,
                                  uint64_t graph_version,
                                  ItemStoreView view) const {
  auto next = std::make_shared<EngineSnapshot>();
  AMICI_ASSIGN_OR_RETURN(
      BuiltIndexes built,
      BuildIndexes(view, graph->num_users(), options_.index_options));
  next->indexes = std::make_shared<const BuiltIndexes>(std::move(built));
  next->index_horizon = static_cast<ItemId>(view.num_items());

  bool has_geo = false;
  for (size_t i = 0; i < view.num_items(); ++i) {
    if (view.has_geo(static_cast<ItemId>(i))) {
      has_geo = true;
      break;
    }
  }
  if (has_geo) {
    next->grid = std::make_shared<const GridIndex>(
        GridIndex::Build(view, options_.geo_cell_size_deg));
  }

  next->graph = std::move(graph);
  next->graph_version = graph_version;
  next->store = view;
  return std::shared_ptr<const EngineSnapshot>(std::move(next));
}

void SocialSearchEngine::PublishLocked(
    std::shared_ptr<const EngineSnapshot> next) {
  snapshot_.store(std::move(next));
}

const SearchAlgorithm* SocialSearchEngine::AlgorithmFor(
    AlgorithmId id) const {
  const size_t index = static_cast<size_t>(id);
  AMICI_CHECK(index < algorithms_.size());
  return algorithms_[index].get();
}

Result<QueryResult> SocialSearchEngine::Query(const SocialQuery& query) {
  return Query(query, PlanAlgorithm(query));
}

Result<QueryResult> SocialSearchEngine::Query(const SocialQuery& query,
                                              AlgorithmId algorithm,
                                              const CancellationToken* cancel) {
  // Pin one generation: everything below executes against `snap`, immune
  // to concurrent AddItem / Compact / friendship publishes.
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();

  AMICI_RETURN_IF_ERROR(ValidateQuery(query, snap->graph->num_users()));
  if (algorithm == AlgorithmId::kGeoGrid && !snap->has_geo_items()) {
    return Status::FailedPrecondition(
        "geo-grid requires geo-tagged items covered by the indexes");
  }

  Stopwatch watch;
  ProximityOutcome proximity_outcome = ProximityOutcome::kCacheHit;
  const std::shared_ptr<const ProximityVector> proximity =
      proximity_->GetProximity(*snap->graph, query.user, snap->graph_version,
                               &proximity_outcome);

  QueryContext ctx;
  ctx.graph = snap->graph.get();
  ctx.store = snap->store;
  ctx.inverted = &snap->indexes->inverted;
  ctx.social = &snap->indexes->social;
  ctx.grid = snap->grid.get();
  ctx.proximity = proximity.get();
  ctx.query = &query;
  ctx.index_horizon = snap->index_horizon;
  ctx.cancel = cancel;
  if (query.has_geo_filter) {
    const GeoPoint center{query.latitude, query.longitude};
    const ItemStoreView store = snap->store;
    const double radius = query.radius_km;
    ctx.filter = [store, center, radius](ItemId item) {
      if (!store.has_geo(item)) return false;
      const GeoPoint p{store.latitude(item), store.longitude(item)};
      return DistanceKm(center, p) <= radius;
    };
  }

  QueryResult result;
  result.algorithm = AlgorithmName(algorithm);
  AMICI_ASSIGN_OR_RETURN(result.items,
                         AlgorithmFor(algorithm)->Search(ctx, &result.stats));
  // After Search: algorithms overwrite *stats wholesale with their local
  // counters.
  if (proximity_outcome == ProximityOutcome::kComputed) {
    result.stats.proximity_computations = 1;
  } else {
    result.stats.proximity_cache_hits = 1;
  }

  // Fold in the un-indexed tail: exhaustively score items the indexes do
  // not cover yet, merging with the algorithm's (exact) indexed top-k.
  // The fold is timed separately: its latency is the freshness cost the
  // compaction policy triggers on (see ingest/compaction_policy.h).
  if (snap->index_horizon < snap->store.num_items()) {
    const uint64_t tail_items =
        snap->store.num_items() - snap->index_horizon;
    Stopwatch tail_watch;
    Scorer scorer(snap->store, proximity.get(), &query);
    TopKHeap heap(query.k);
    for (const ScoredItem& item : result.items) {
      heap.Push(item.item, item.score);
    }
    CancellationTicker tail_ticker(cancel);
    for (ItemId item = snap->index_horizon;
         item < static_cast<ItemId>(snap->store.num_items()); ++item) {
      if (tail_ticker.Check()) {
        result.stats.truncated = true;
        break;
      }
      ++result.stats.items_considered;
      if (!scorer.Eligible(item)) continue;
      if (ctx.filter != nullptr && !ctx.filter(item)) continue;
      const double score = scorer.Score(item);
      if (score > 0.0) heap.Push(item, score);
    }
    result.items = heap.TakeSorted();
    result.stats.tail_items_scanned = tail_items;
    stats_.RecordTailScan(tail_items, tail_watch.ElapsedMillis());
  } else {
    stats_.RecordTailScan(0, 0.0);
  }

  result.elapsed_ms = watch.ElapsedMillis();
  stats_.RecordQuery(result.algorithm, result.elapsed_ms, result.stats);
  return result;
}

Result<QueryResult> SocialSearchEngine::QueryDiverse(
    const SocialQuery& query, size_t max_per_owner, AlgorithmId algorithm,
    const CancellationToken* cancel) {
  if (max_per_owner == 0) {
    return Status::InvalidArgument("max_per_owner must be >= 1");
  }
  // Iterative deepening: greedy per-owner selection over the top-N is
  // exact as soon as it either fills k slots or exhausts the positive-
  // score corpus (N returned < N requested). Owner lookups are safe
  // without pinning a snapshot: an item's owner never changes once the
  // item is visible.
  SocialQuery fetch_query = query;
  size_t fetch_k = query.k;
  while (true) {
    fetch_query.k = fetch_k;
    AMICI_ASSIGN_OR_RETURN(QueryResult fetched,
                           Query(fetch_query, algorithm, cancel));
    std::unordered_map<UserId, size_t> taken;
    std::vector<ScoredItem> diverse;
    for (const ScoredItem& entry : fetched.items) {
      size_t& count = taken[store_.owner(entry.item)];
      if (count >= max_per_owner) continue;
      ++count;
      diverse.push_back(entry);
      if (diverse.size() == query.k) break;
    }
    const bool corpus_exhausted = fetched.items.size() < fetch_k;
    // A truncated fetch ends the deepening: the token has expired, so a
    // deeper re-fetch would only redo partial work. Return the best-
    // effort diversified prefix.
    if (diverse.size() == query.k || corpus_exhausted ||
        fetched.stats.truncated) {
      fetched.items = std::move(diverse);
      return fetched;
    }
    fetch_k = NextDiverseFetchDepth(fetch_k);
  }
}

std::vector<Result<QueryResult>> SocialSearchEngine::QueryBatch(
    std::span<const SocialQuery> queries, AlgorithmId algorithm,
    ThreadPool* pool) {
  std::vector<Result<QueryResult>> results(
      queries.size(), Status::Internal("batch slot never executed"));
  if (pool == nullptr) {
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i] = Query(queries[i], algorithm);
    }
    return results;
  }
  pool->ParallelFor(queries.size(), [&](size_t i) {
    results[i] = Query(queries[i], algorithm);
  });
  return results;
}

Result<std::vector<TagSuggestion>> SocialSearchEngine::SuggestTags(
    UserId user, std::span<const TagId> seed_tags,
    const QueryExpansionOptions& options) {
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  if (user >= snap->graph->num_users()) {
    return Status::InvalidArgument("user outside the social graph");
  }
  const std::shared_ptr<const ProximityVector> proximity =
      proximity_->GetProximity(*snap->graph, user, snap->graph_version);
  return SuggestQueryTags(snap->store, snap->indexes->social, *proximity,
                          user, seed_tags, options);
}

Result<ItemId> SocialSearchEngine::AddItem(const Item& item) {
  // The batch path with a batch of one: a single append followed by one
  // publish whose store view covers the new item — the "cheap
  // tail-append" write path.
  AMICI_ASSIGN_OR_RETURN(const std::vector<ItemId> ids,
                         AddItems(std::span<const Item>(&item, 1)));
  return ids[0];
}

Result<std::vector<ItemId>> SocialSearchEngine::AddItems(
    std::span<const Item> items) {
  if (items.empty()) return std::vector<ItemId>{};  // nothing to publish
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::shared_ptr<const EngineSnapshot> cur = snapshot();
  // Validate the whole batch up front (including CUMULATIVE store
  // capacity): after the first append the only way to keep the batch
  // atomic is to not start appending until every item is known to be
  // admissible.
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].owner >= cur->graph->num_users()) {
      return Status::InvalidArgument(
          StringPrintf("batch item %zu: owner outside the social graph", i));
    }
  }
  AMICI_RETURN_IF_ERROR(store_.ValidateForAddAll(items));
  std::vector<ItemId> ids;
  ids.reserve(items.size());
  for (const Item& item : items) {
    // Cannot fail: ValidateForAddAll covered shape AND cumulative
    // capacity, and the writer mutex serializes every appender.
    AMICI_ASSIGN_OR_RETURN(const ItemId id, store_.Add(item));
    ids.push_back(id);
  }

  // One publish for the whole batch; see AddItem for the snapshot shape.
  auto next = std::make_shared<EngineSnapshot>(*cur);
  next->store = ItemStoreView(store_);
  PublishLocked(std::move(next));
  return ids;
}

Status SocialSearchEngine::AddFriendship(UserId u, UserId v) {
  // The provider owns the graph: it validates, rebuilds and publishes the
  // new generation (AlreadyExists / NotFound / InvalidArgument semantics
  // live there now); this engine then adopts it into a fresh snapshot.
  AMICI_RETURN_IF_ERROR(proximity_->AddFriendship(u, v));
  return SyncGraph();
}

Status SocialSearchEngine::RemoveFriendship(UserId u, UserId v) {
  AMICI_RETURN_IF_ERROR(proximity_->RemoveFriendship(u, v));
  return SyncGraph();
}

Status SocialSearchEngine::SyncGraph() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const ProximityProvider::GraphView view = proximity_->Acquire();
  const std::shared_ptr<const EngineSnapshot> cur = snapshot();
  // <= not ==: when two edits race, the loser's Acquire may read an older
  // view than the winner's sync already published — never regress.
  if (view.generation <= cur->graph_version) return Status::Ok();
  auto next = std::make_shared<EngineSnapshot>(*cur);
  next->graph = view.graph;
  next->graph_version = view.generation;
  next->store = ItemStoreView(store_);
  PublishLocked(std::move(next));
  // No proximity-cache clear: entries are keyed by graph generation, so
  // stale vectors can neither hit nor survive the first new-generation
  // access.
  return Status::Ok();
}

namespace {

/// Lists a full rebuild materialized (every non-empty one) — the rebuild
/// counterpart of the merge path's touched-list count, so the two modes
/// report comparable work numbers.
uint64_t CountBuiltLists(const EngineSnapshot& snap) {
  uint64_t lists = 0;
  const InvertedIndex& inverted = snap.indexes->inverted;
  for (size_t tag = 0; tag < inverted.num_tags(); ++tag) {
    if (inverted.DocumentFrequency(static_cast<TagId>(tag)) > 0) ++lists;
  }
  const SocialIndex& social = snap.indexes->social;
  for (size_t user = 0; user < social.num_users(); ++user) {
    if (!social.ItemsOf(static_cast<UserId>(user)).empty()) ++lists;
  }
  if (snap.grid != nullptr) lists += snap.grid->num_cells();
  return lists;
}

}  // namespace

Result<std::shared_ptr<const EngineSnapshot>>
SocialSearchEngine::MergeSnapshot(const EngineSnapshot& pinned,
                                  CompactionOutcome* outcome) const {
  const ItemStoreView view = pinned.store;
  auto next = std::make_shared<EngineSnapshot>();

  IndexMergeStats merge_stats;
  AMICI_ASSIGN_OR_RETURN(
      BuiltIndexes merged,
      MergeIndexes(*pinned.indexes, pinned.index_horizon, view,
                   pinned.graph->num_users(), options_.index_options,
                   &merge_stats));
  next->indexes = std::make_shared<const BuiltIndexes>(std::move(merged));
  next->index_horizon = static_cast<ItemId>(view.num_items());

  // The grid exists iff any covered item has a geo position; the merge
  // only needs to look at the TAIL to decide (the base grid already
  // answers it for the indexed prefix).
  bool tail_has_geo = false;
  for (size_t i = pinned.index_horizon; i < view.num_items(); ++i) {
    if (view.has_geo(static_cast<ItemId>(i))) {
      tail_has_geo = true;
      break;
    }
  }
  uint64_t cells_touched = 0;
  if (pinned.grid != nullptr || tail_has_geo) {
    next->grid = std::make_shared<const GridIndex>(GridIndex::MergeFrom(
        pinned.grid.get(), view, pinned.index_horizon,
        options_.geo_cell_size_deg, &cells_touched));
  }

  next->graph = pinned.graph;
  next->graph_version = pinned.graph_version;
  next->store = view;

  outcome->items_merged = merge_stats.items_merged;
  outcome->lists_touched = merge_stats.lists_touched + cells_touched;
  return std::shared_ptr<const EngineSnapshot>(std::move(next));
}

Status SocialSearchEngine::Compact(CompactionOutcome* outcome) {
  return Compact(options_.compaction_mode, outcome);
}

Status SocialSearchEngine::Compact(CompactionMode mode,
                                   CompactionOutcome* outcome) {
  // Pin the generation to compact. The expensive index build below runs
  // WITHOUT the writer lock: queries keep executing and AddItem keeps
  // appending (past the pinned view's bound) while we work.
  Stopwatch watch;
  const std::shared_ptr<const EngineSnapshot> pinned = snapshot();

  const size_t tail_items = pinned->unindexed_items();
  const size_t indexed_items = pinned->index_horizon;
  bool merge = false;
  switch (mode) {
    case CompactionMode::kAuto:
      // Merge pays off while the tail is small next to the indexed base;
      // with no base at all, the "merge" IS a build — take the rebuild
      // path and report it as such.
      merge = indexed_items > 0 &&
              static_cast<double>(tail_items) <=
                  options_.merge_max_tail_ratio *
                      static_cast<double>(indexed_items);
      break;
    case CompactionMode::kAlwaysRebuild:
      merge = false;
      break;
    case CompactionMode::kAlwaysMerge:
      merge = true;
      break;
  }

  CompactionOutcome result;
  result.merged = merge;
  std::shared_ptr<const EngineSnapshot> built;
  if (merge) {
    AMICI_ASSIGN_OR_RETURN(built, MergeSnapshot(*pinned, &result));
  } else {
    AMICI_ASSIGN_OR_RETURN(
        built,
        BuildSnapshot(pinned->graph, pinned->graph_version, pinned->store));
    result.items_merged = tail_items;
    result.lists_touched = CountBuiltLists(*built);
  }

  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    const std::shared_ptr<const EngineSnapshot> cur = snapshot();
    if (built->index_horizon < cur->index_horizon) {
      // A concurrent Compact already covered more of the catalogue; keep
      // it (and report that nothing was published here).
      if (outcome != nullptr) *outcome = CompactionOutcome{};
      return Status::Ok();
    }
    auto next = std::make_shared<EngineSnapshot>(*built);
    // Adopt whatever the writers published while we built: the latest
    // graph generation and the full store extent (items ingested during
    // the build stay in the tail until the next Compact).
    next->graph = cur->graph;
    next->graph_version = cur->graph_version;
    next->store = ItemStoreView(store_);
    PublishLocked(std::move(next));
  }
  result.published = true;
  result.elapsed_ms = watch.ElapsedMillis();
  stats_.NoteCompaction(result);
  if (outcome != nullptr) *outcome = result;
  AMICI_LOG(kInfo) << "compacted (" << result.mode() << "): indexes now cover "
                   << built->index_horizon << " items; "
                   << result.items_merged << " items merged, "
                   << result.lists_touched << " lists touched";
  return Status::Ok();
}

Result<persist::Manifest> SocialSearchEngine::WriteSnapshotFiles(
    const std::string& dir, uint64_t generation, const persist::Manifest* prev,
    persist::SnapshotSaveReport* report) {
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  return persist::WriteEngineSnapshot(dir, *snap, generation, prev, report);
}

}  // namespace amici
