#ifndef AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/search_service.h"
#include "service/service_persistence.h"
#include "storage/stable_column.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace amici {

/// The search service: items are hash-partitioned across N single-node
/// engines; the friendship graph and the proximity score cache live in
/// ONE ProximityProvider that every shard engine consumes — one graph
/// instance and one proximity computation per cache-missed (user,
/// generation), no matter the shard count. A request fans out to every
/// shard and the per-shard top-k lists are merged exactly on (score desc,
/// global id asc). N = 1 is the single-node deployment (named
/// LocalSearchService), not a separate implementation.
///
/// Why the merge is exact: an item's blended score depends only on the
/// item itself, the query, and the owner's proximity — and proximity is
/// computed on the one shared graph, identically everywhere. Any item in
/// the global top-k therefore also ranks in its own shard's top-k, so the
/// union of per-shard top-k lists contains the global top-k, and merging
/// on score reproduces it bit-for-bit (tests/service/
/// sharded_invariance_test.cc asserts this against a single engine over
/// the whole corpus for plain, diverse, geo-filtered and batch requests).
///
/// Id spaces: callers see GLOBAL ids, assigned densely in ingest order
/// exactly like a single engine would. Internally each shard has its own
/// dense local id space; with N > 1 the service keeps both directions of
/// the mapping in pointer-stable columns so queries can translate
/// concurrently with ingest (with N = 1 the two spaces coincide and no
/// mapping is stored). Because items are appended to shards in global
/// order, local id order within a shard agrees with global order — which
/// is what makes the tie-break (ascending id) consistent between the
/// per-shard heaps and the global merge.
///
/// Thread-safety mirrors the engine contract: queries from any number of
/// threads, concurrently with mutators; mutators serialize on a service
/// writer mutex (shard engines additionally serialize internally).
/// Consistency note: a fanned-out request pins each shard's snapshot
/// independently, so an ingest racing a query may be visible on some
/// shards and not yet on others — each shard's contribution is exact for
/// the state it pinned (the usual freshness relaxation of distributed
/// search; quiesced states match a single engine: identical float
/// scores at every rank, identical items except for selection among
/// entries whose float-rounded scores tie exactly).
class ShardedSearchService : public SearchService {
 public:
  struct Options {
    /// Number of partitions; >= 1.
    size_t num_shards = 4;
    /// Applied to every shard engine. The proximity knobs
    /// (proximity_model / proximity_cache_capacity /
    /// proximity_warm_top_n / proximity_fold_policy) configure the ONE
    /// ProximityProvider Build creates and hands to every shard;
    /// engine.proximity_provider itself must be left null (Build owns
    /// provider construction).
    SocialSearchEngine::Options engine;
    /// Fan-out worker threads; 0 sizes the pool to min(num_shards,
    /// hardware concurrency).
    size_t fanout_threads = 0;
  };

  /// Builds the service over `graph` and `store` (both consumed): items
  /// are dealt to shards by id hash (one shard takes the store whole),
  /// the graph moves into the one shared ProximityProvider all shards
  /// consume.
  static Result<std::unique_ptr<ShardedSearchService>> Build(
      SocialGraph graph, ItemStore store, Options options);

  /// Reopens a service from a snapshot directory written by
  /// SaveSnapshot: restores the one shared graph from the root segment,
  /// maps every shard's segments, deterministically rebuilds the global
  /// <-> local id maps of a multi-shard snapshot (placement is a pure
  /// function of the global id and the shard count), replays the WAL's
  /// committed tail through the normal mutators, and attaches the WAL. The shard count comes from
  /// the root manifest; options.num_shards is ignored. `replay_stats`,
  /// when non-null, receives what the replay did.
  static Result<std::unique_ptr<ShardedSearchService>> OpenSnapshot(
      const std::string& dir, Options options,
      const persist::SnapshotOpenOptions& open_options =
          persist::SnapshotOpenOptions(),
      persist::WalReplayStats* replay_stats = nullptr);

  /// Joins the background ingest/compaction threads before the shards go
  /// away (they drain through this object's mutators).
  ~ShardedSearchService() override;

  std::string_view backend_name() const override { return backend_label_; }
  size_t num_shards() const override { return shards_.size(); }

  /// Per-shard compaction surface: the background scheduler triggers
  /// exactly the shards whose policy fires, instead of the fleet-wide
  /// Compact(). Signals are read from each shard engine's snapshot and
  /// stats — safe concurrently with queries and ingest.
  CompactionSignals ShardSignals(size_t shard) const override;
  Status CompactShard(size_t shard,
                      CompactionOutcome* outcome = nullptr) override;

  Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options) override;

  /// Sum of the per-shard estimates (each shard runs the query against
  /// its own lists and tail).
  uint64_t EstimateQueryCost(const SocialQuery& query) const override;

  /// The one provider shared by every shard engine.
  std::shared_ptr<ProximityProvider> proximity_provider() const override {
    return provider_;
  }

  /// Escape hatch for tests/tooling that inspect a shard's engine (e.g.
  /// asserting every shard snapshot pins the SAME graph instance).
  SocialSearchEngine* shard_engine(size_t shard) {
    return shards_[shard].get();
  }

  Result<ItemId> AddItem(const Item& item) override;
  Result<std::vector<ItemId>> AddItems(std::span<const Item> items) override;
  Status AddFriendship(UserId u, UserId v) override;
  Status RemoveFriendship(UserId u, UserId v) override;
  Status Compact() override;
  Result<persist::SnapshotSaveReport> SaveSnapshot(
      const std::string& dir) override;

  size_t num_users() const override;
  /// Ids admitted so far. May briefly LEAD query visibility while an
  /// append is in flight (it never lags it: any id a response contains is
  /// already counted). Do not derive readable ids from it during
  /// concurrent ingest — see OwnerOf.
  size_t num_items() const override {
    return num_items_.load(std::memory_order_acquire);
  }
  size_t unindexed_items() const override;
  /// `item` must be a published id (obtained from a response or an Add
  /// return value) — ids merely admitted by an in-flight append are not
  /// yet readable.
  UserId OwnerOf(ItemId item) const override;
  std::vector<TagId> TagsOf(ItemId item) const override;
  std::vector<UserId> FriendsOf(UserId user) const override;
  std::string StatsSummary() const override;

 protected:
  /// `backend_label` empty selects "sharded/<N>". options.num_shards == 0
  /// (OpenFrom only) takes the shard count from the snapshot.
  ShardedSearchService(Options options, std::string backend_label);

  /// The bodies of Build and OpenSnapshot, run on a freshly constructed
  /// service. OpenFrom rejects a snapshot whose shard count differs from
  /// a non-zero options.num_shards.
  Status BuildFrom(SocialGraph graph, ItemStore store);
  Status OpenFrom(const std::string& dir,
                  const persist::SnapshotOpenOptions& open_options,
                  persist::WalReplayStats* replay_stats);

  Result<SearchResponse> SearchImpl(const SearchRequest& request) override;
  std::vector<Result<SearchResponse>> SearchBatchImpl(
      std::span<const SearchRequest> requests) override;

 private:
  using Clock = CancellationToken::Clock;

  /// Where a global item lives. Trivially copyable: stored in a
  /// StableColumn read concurrently with ingest.
  struct ShardRef {
    uint32_t shard;
    ItemId local;
  };
  /// A request still being served, possibly a deeper owner-diversified
  /// round (see ExecuteRequests).
  struct Pending;
  /// One fan-out round's shared state (see DispatchRound).
  struct Round;

  uint32_t ShardOf(ItemId global) const;

  /// The id maps. With one shard, global and local ids coincide: no map
  /// rows are stored or replayed, and Build hands the store over whole.
  bool identity_ids() const { return options_.num_shards == 1; }
  ShardRef Locate(ItemId global) const;
  ItemId ToGlobal(size_t shard, ItemId local) const;
  /// Appends the mapping rows for the next global id `global`.
  void RecordPlacementLocked(ItemId global);

  /// Shared tail of BuildFrom / OpenFrom: label and fan-out pool.
  void StartServing();

  /// FanOutOnPool over this service's pool: fn(0) on the calling thread,
  /// the rest on the workers, per-call completion tracking.
  void RunFanOut(size_t count, const std::function<void(size_t)>& fn) const;

  /// True when any shard's current snapshot covers geo items (the
  /// precondition for honouring a geo-grid hint somewhere).
  bool AnyShardHasGeoItems() const;

  /// Executes `query` on shard `s` (honouring the algorithm hint, with an
  /// exact hybrid fallback where the hint cannot apply locally —
  /// `geo_fallback_allowed` is AnyShardHasGeoItems() computed once per
  /// request) and translates result ids to the global space. `cancel`
  /// (null = never) is the row's deadline/abandonment token, probed
  /// cooperatively inside the shard's algorithm — an abandoned row's
  /// stragglers exit early instead of occupying pool slots.
  Result<QueryResult> QueryShard(size_t s, const SocialQuery& query,
                                 std::optional<AlgorithmId> hint,
                                 bool geo_fallback_allowed,
                                 const CancellationToken* cancel) const;

  /// Shared loop behind Search and SearchBatch: rounds of dispatch,
  /// wait and merge until every request is final.
  std::vector<Result<SearchResponse>> ExecuteRequests(
      std::span<const SearchRequest> requests);

  /// Starts one round over (pending row x shard). A round of one job runs
  /// on the calling thread; without any deadline the jobs run as one
  /// barrier fan-out; otherwise every job goes to the pool.
  std::shared_ptr<Round> DispatchRound(
      std::span<const SearchRequest> requests,
      std::span<const Pending> pending, Clock::time_point start,
      bool geo_fallback_allowed);

  /// Waits for each row's shards until the deadline of the row's token;
  /// a row that overruns is abandoned and its stragglers are cancelled.
  void AwaitRound(Round& round) const;

  /// Merges row `r` of an awaited round exactly over the shards that
  /// reported. Returns the final response, or nullopt after deepening
  /// `*pending` for another owner-diversified round.
  std::optional<Result<SearchResponse>> MergeRow(
      Round& round, size_t r, const SearchRequest& request,
      Pending* pending, const Stopwatch& watch) const;

  Options options_;
  std::string backend_label_;  // "sharded/<N>" unless the subclass names it
  /// The one graph + proximity surface every shard engine consumes.
  std::shared_ptr<ProximityProvider> provider_;
  std::vector<std::unique_ptr<SocialSearchEngine>> shards_;
  /// global id -> (shard, local id); empty with identity ids. Readers only touch rows of items
  /// already visible through some pinned shard snapshot; the engine's
  /// snapshot publish provides the release/acquire edge that makes the
  /// row's writes visible (see StableColumn's concurrency contract).
  StableColumn<ShardRef> global_to_shard_;
  /// Per shard: local id -> global id. Same visibility argument.
  std::vector<StableColumn<ItemId>> local_to_global_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes mutators (item ingest, friendship edits).
  std::mutex writer_mutex_;
  std::atomic<size_t> num_items_{0};
  /// Snapshot attachment + WAL; guarded by writer_mutex_.
  ServicePersistState persist_;
};

}  // namespace amici

#endif  // AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
