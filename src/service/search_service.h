#ifndef AMICI_SERVICE_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/query_expansion.h"
#include "core/social_query.h"
#include "ingest/compaction_scheduler.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/ingest_sink.h"
#include "proximity/proximity_provider.h"
#include "service/admission_controller.h"
#include "service/service_persistence.h"
#include "storage/item_store.h"
#include "util/cancellation.h"
#include "util/ids.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace amici {

/// One query through the service surface: the SocialQuery plus the
/// options that used to be separate engine entry points (algorithm
/// override, owner diversity, deadline). A plain default-constructed
/// request with just `query` filled in reproduces the old
/// `engine.Query(query)` behaviour at any shard count.
struct SearchRequest {
  SocialQuery query;
  /// Execution-strategy hint; nullopt lets the service choose per query
  /// (PlanAlgorithm: the rarest-list scan for kAll, hybrid otherwise).
  /// A shard may substitute an equivalent strategy where the hint cannot
  /// apply (e.g. geo-grid on a shard holding no geo items) — results are
  /// exact either way, only the work profile changes.
  std::optional<AlgorithmId> algorithm;
  /// Owner-diversified top-k: at most this many results from any single
  /// owner (0 = unconstrained). Exact — see SocialSearchEngine::QueryDiverse.
  size_t max_per_owner = 0;
  /// Deadline in milliseconds from request start; <= 0 disables. NaN,
  /// +inf and values above CancellationToken::kMaxTimeoutMs are rejected
  /// with InvalidArgument before admission. Enforced
  /// COOPERATIVELY: the service derives a CancellationToken from it that
  /// the search algorithms probe per posting-list block / candidate
  /// batch, so an expired deadline stops work *inside* a shard (stats.
  /// truncated marks the best-effort partial). A multi-shard service
  /// additionally abandons whole shards at the fan-out barrier and
  /// cancels their stragglers (deadline_exceeded = true, shards_touched /
  /// shards_abandoned = how the fan-out split); the response is the
  /// exact-over-completed merge of whatever the deadline allowed.
  double timeout_ms = 0.0;
};

/// The outcome of one service request: item ids are in the service's
/// GLOBAL id space regardless of how the catalogue is spread over shards.
struct SearchResponse {
  /// Best-first (score-descending, item-id-ascending tie-break) results,
  /// at most `query.k` entries.
  std::vector<ScoredItem> items;
  /// Work counters, summed across every shard that executed.
  SearchStats stats;
  /// End-to-end latency observed by the service, including fan-out and
  /// merge.
  double elapsed_ms = 0.0;
  /// Which strategy executed (the hint, or the planned strategy when the
  /// request named none — see PlanAlgorithm). When some
  /// shards substituted an equivalent strategy and others did not (see
  /// SearchRequest::algorithm), the hint's name is kept; if every shard
  /// substituted, the substitute's name is reported.
  std::string_view algorithm;
  /// Which deployment served the request ("local", "sharded/4", ...).
  std::string_view backend;
  /// How many shards contributed results. Normally the shard count;
  /// fewer when a deadline abandoned slow shards mid-fan-out or a shard
  /// failed (see shards_abandoned / shards_failed).
  size_t shards_touched = 1;
  /// Shards the deadline abandoned before they reported: their stragglers
  /// were cancelled (cooperatively) and their items are missing from this
  /// response by design. Counted even on paths the token cannot reach
  /// (e.g. a shard stuck in an un-cancellable proximity computation).
  size_t shards_abandoned = 0;
  /// Shards that completed with an error. Their items are missing; the
  /// merge is exact over the healthy shards. First error in shard_error.
  size_t shards_failed = 0;
  /// Message of the first failed shard's status ("" when none failed) —
  /// the honest-response contract surfaces partial failures here instead
  /// of discarding the healthy shards' results.
  std::string shard_error;
  /// True when a timeout_ms was set and the request overran it — cut
  /// short inside a shard (stats.truncated), at the fan-out barrier
  /// (shards_abandoned > 0, items possibly partial), or detected post-hoc
  /// (results still complete).
  bool deadline_exceeded = false;
  /// True when admission control ran this request cheaper than asked
  /// (capped k / clamped deadline — see AdmissionController::Options).
  /// The strategy is never swapped: every strategy is exact, so the plan
  /// already runs the cheapest one. Results are exact for WHAT RAN, but
  /// not what was requested.
  bool degraded = false;
  /// True when admission control refused to run this request: a
  /// well-formed empty response, not an error and never a silent drop.
  bool shed = false;
};

/// The search service: the query surface every caller (examples, benches,
/// tests, tools) uses. Items are spread over N single-node engines
/// (shards); the friendship graph and the proximity score cache live in
/// ONE ProximityProvider that every shard engine consumes — one graph
/// instance and one proximity computation per cache-missed (user,
/// generation), no matter the shard count. A request fans out to every
/// shard and the per-shard top-k lists are merged exactly on (score desc,
/// global id asc). N = 1 is the single-node deployment (named
/// LocalSearchService), not a separate implementation.
///
/// Placement: global item `g` lives on shard `g % N` at local id `g / N`.
/// Global ids are dense and never removed, so placement is pure
/// arithmetic in both directions, shards stay balanced to within one
/// item, and N = 1 is the identity. Within a shard, local id order is
/// global id order restricted to that shard — which is what makes the
/// tie-break (ascending id) consistent between the per-shard heaps and
/// the global merge.
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
/// Thread-safety:
///  * Search / SearchBatch / SuggestTags are safe from any number of
///    threads, concurrently with each other AND with all mutators;
///  * AddItem / AddItems / AddFriendship / RemoveFriendship / Compact are
///    safe concurrently with queries and serialize on a service writer
///    mutex (shard engines additionally serialize internally);
///  * a fanned-out request pins each shard's snapshot independently, so
///    an ingest racing a query may be visible on some shards and not yet
///    on others — each shard's contribution is exact for the state it
///    pinned. Quiesced states match a single engine: identical float
///    scores at every rank, identical items except for selection among
///    entries whose float-rounded scores tie exactly. SuggestTags support
///    counts and thresholds are likewise exact at every shard count;
///    suggestion WEIGHTS may differ in the last float ulps (per-shard
///    float subtotals vs one double sum), which can reorder near-tied
///    tags.
///
/// The service also owns the OPTIONAL background machinery of the ingest
/// subsystem (src/ingest/): an MPSC queue + writer thread (StartIngest /
/// EnqueueItems / Flush) and a background compaction scheduler
/// (StartAutoCompaction). Both drain into the synchronous mutators
/// through the IngestSink / CompactionTarget interfaces; the destructor
/// stops them before anything else is torn down.
class SearchService : public IngestSink, public CompactionTarget {
 public:
  struct Options {
    /// Number of shards; >= 1.
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

  /// Builds the service over `graph` and `store` (both consumed): item g
  /// is dealt to shard g % N (one shard takes the store whole), the graph
  /// moves into the one shared ProximityProvider all shards consume.
  static Result<std::unique_ptr<SearchService>> Build(SocialGraph graph,
                                                      ItemStore store,
                                                      Options options);

  /// Reopens a service from a snapshot directory written by
  /// SaveSnapshot: restores the one shared graph from the root segment,
  /// maps every shard's segments, replays the WAL's committed tail
  /// through the normal mutators, and attaches the WAL. The shard count
  /// comes from the root manifest; options.num_shards is ignored. A
  /// multi-shard snapshot written under the retired hash placement is
  /// FailedPrecondition. `replay_stats`, when non-null, receives what the
  /// replay did.
  static Result<std::unique_ptr<SearchService>> OpenSnapshot(
      const std::string& dir, Options options,
      const persist::SnapshotOpenOptions& open_options =
          persist::SnapshotOpenOptions(),
      persist::WalReplayStats* replay_stats = nullptr);

  /// Stops the background ingest/compaction threads (they drain through
  /// this object's mutators) before the shards go away.
  ~SearchService() override;

  /// Stable deployment label ("local", "sharded/4").
  std::string_view backend_name() const { return backend_label_; }

  // --- CompactionTarget: the per-shard compaction surface --------------
  // The background scheduler triggers exactly the shards whose policy
  // fires, instead of the fleet-wide Compact(). Signals are read from each
  // shard engine's snapshot and stats — safe concurrently with queries
  // and ingest.

  size_t num_shards() const override { return shards_.size(); }
  CompactionSignals ShardSignals(size_t shard) const override;
  Status CompactShard(size_t shard,
                      CompactionOutcome* outcome = nullptr) override;

  /// Executes one request (plain or owner-diversified top-k) through the
  /// QoS edge: request validation (InvalidArgument for an unusable
  /// timeout_ms), then admission control (when enabled — may shed or
  /// degrade, reported honestly in the response), then the fan-out.
  Result<SearchResponse> Search(const SearchRequest& request);

  /// Executes a batch; results are positionally aligned with `requests`.
  /// The (request x shard) jobs run in parallel. Validation and admission
  /// are per-request: some rows of one batch may run while others are
  /// rejected or shed.
  std::vector<Result<SearchResponse>> SearchBatch(
      std::span<const SearchRequest> requests);

  /// Estimated work for `query`, in candidate units: the sum over shards
  /// of the posting entries the planned strategy walks (kAll: the rarest
  /// tag's list, which the rarest-list scan enumerates; kAny: every query
  /// tag's list) plus the un-indexed tail items scanned per query. A
  /// kAll request hinted to a TA strategy may drain every list and so
  /// cost more than this. Reads the current snapshots; cheap (per-tag
  /// document frequencies, no traversal). The admission controller's cost
  /// gates compare against this number.
  uint64_t EstimateQueryCost(const SocialQuery& query) const;

  // --- Query QoS: admission control + honest shedding -------------------
  // Disabled by default: without a controller the edge is a pass-through
  // and responses are bit-identical to the pre-QoS behaviour.

  /// Installs (or replaces) the admission controller at this service's
  /// query edge. Safe alongside in-flight queries: they finish under the
  /// controller they entered with.
  void EnableAdmissionControl(AdmissionController::Options options);

  /// Removes the controller; queries pass through unconditionally again.
  void DisableAdmissionControl();

  bool admission_enabled() const { return admission() != nullptr; }

  /// The live controller (null when disabled) — stats surface for benches
  /// and tests.
  std::shared_ptr<AdmissionController> admission() const;

  /// Cumulative QoS counters at this service's edge (all zero until the
  /// relevant feature fires): every Search/SearchBatch row lands in
  /// exactly one of admitted/degraded/shed.
  struct QosCounters {
    uint64_t admitted = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    /// Responses whose stats.truncated was set (mid-shard cancellation).
    uint64_t truncated = 0;
    uint64_t deadline_exceeded = 0;
    /// Sum of SearchResponse::shards_abandoned over all responses.
    uint64_t shards_abandoned = 0;
    /// Sum of SearchResponse::shards_failed over all responses.
    uint64_t shards_failed = 0;
  };
  QosCounters qos_counters() const;

  /// One "[qos] ..." line for StatsSummary (ends with '\n').
  std::string QosSummaryLine() const;

  /// Suggests expansion tags for `seed_tags` (sorted, unique) from the
  /// user's social neighbourhood (see query_expansion.h). Per-shard
  /// evidence is union-merged, applying min_cooccurrence on the global
  /// support count.
  Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options = QueryExpansionOptions());

  /// The ONE graph + proximity surface behind this service. Every shard
  /// engine consumes this same provider, so the graph and the proximity
  /// score cache exist exactly once regardless of shard count.
  std::shared_ptr<ProximityProvider> proximity_provider() const {
    return provider_;
  }

  /// Provider counter snapshot (computations, cache hits, in-flight
  /// joins, warm-over work, generations) — the service-stats surface of
  /// the shared proximity layer; per-request counters additionally ride
  /// in SearchResponse::stats.
  ProximityProviderStats proximity_stats() const { return provider_->stats(); }

  /// Escape hatch for tests/tooling that inspect a shard's engine (e.g.
  /// asserting every shard snapshot pins the SAME graph instance).
  SocialSearchEngine* shard_engine(size_t shard) {
    return shards_[shard].get();
  }

  /// Appends one item; returns its GLOBAL id. Ids are assigned densely in
  /// ingest order.
  Result<ItemId> AddItem(const Item& item);

  // --- IngestSink: the synchronous mutators the writer thread drains into

  /// Appends a batch atomically (all-or-nothing): global ids in batch
  /// order, one snapshot publish per touched shard.
  Result<std::vector<ItemId>> AddItems(std::span<const Item> items) override;
  /// One edit on the one shared graph; engine status semantics
  /// (AlreadyExists / NotFound).
  Status AddFriendship(UserId u, UserId v) override;
  Status RemoveFriendship(UserId u, UserId v) override;

  /// Folds every un-indexed tail into fresh indexes (all shards).
  Status Compact();

  /// Persists the full service state into `dir` and commits it
  /// atomically (see src/service/service_persistence.h for the layout
  /// and protocol), then attaches a fresh ingest WAL: every subsequent
  /// mutation is logged and fdatasync-flushed before it is acknowledged,
  /// so reopening the directory replays exactly the acknowledged tail.
  /// Incremental when `dir` already holds a compatible snapshot.
  /// Serializes with the other mutators; queries are unaffected.
  Result<persist::SnapshotSaveReport> SaveSnapshot(const std::string& dir);

  // --- Asynchronous ingest (MPSC queue + writer thread) ----------------
  // The decoupled write path: producers enqueue and immediately return
  // with a ticket; a dedicated writer thread coalesces queued batches
  // into the fewest possible AddItems calls (one snapshot publish per
  // coalesced run). See src/ingest/ingest_pipeline.h.

  /// Starts the pipeline. FailedPrecondition when already running.
  Status StartIngest(const IngestPipeline::Options& options = {});

  /// Closes the queue, drains it, joins the writer thread. Idempotent.
  Status StopIngest();

  bool ingest_running() const;

  /// Enqueues a batch for the writer thread (backpressure per the queue
  /// options). When no pipeline is running, falls back to applying the
  /// batch synchronously and returns an already-completed ticket — so
  /// callers can speak Enqueue + Flush regardless of deployment mode.
  /// While a StopIngest drain is in flight the enqueue is REJECTED
  /// (FailedPrecondition) rather than silently jumping the queue.
  Result<IngestTicket> EnqueueItems(std::vector<Item> items);

  /// Friendship edits through the same queue, ordered with the item
  /// batches around them. Synchronous fallback like EnqueueItems.
  ///
  /// Validated at the API edge, BEFORE anything is enqueued: self-edges
  /// and out-of-range endpoints are ALWAYS InvalidArgument immediately
  /// (no queued edit could make them valid). Edge-existence outcomes
  /// (AlreadyExists for duplicate adds, NotFound for missing removes)
  /// are also reported immediately on the synchronous path — but with a
  /// pipeline running they ride the ticket, because a still-queued edit
  /// may legitimately change the edge's state first (Add directly
  /// followed by Remove is a valid ordered sequence, and rejecting it
  /// against the published graph would break the queue's ordering
  /// contract).
  Result<IngestTicket> EnqueueAddFriendship(UserId u, UserId v);
  Result<IngestTicket> EnqueueRemoveFriendship(UserId u, UserId v);

  /// Read-your-writes barrier: returns once everything enqueued BEFORE
  /// this call is applied and query-visible. Ok when no pipeline runs
  /// (synchronous writes are always visible).
  Status Flush();

  /// Producer + drain side counters (zeroes when no pipeline ran).
  IngestCounters ingest_counters() const;

  // --- Background compaction -------------------------------------------
  // Replaces manual Compact() calls with policy: a scheduler thread polls
  // every shard's CompactionSignals and compacts exactly the shards whose
  // policy fires (per-shard, not fleet-wide). See
  // src/ingest/compaction_scheduler.h.

  /// Starts the scheduler. FailedPrecondition when already running.
  Status StartAutoCompaction(const CompactionScheduler::Options& options = {});

  /// Stops and joins the scheduler thread. Idempotent.
  Status StopAutoCompaction();

  bool auto_compaction_running() const;

  /// Background compactions triggered so far (0 when never started).
  uint64_t auto_compactions() const;

  // --- Introspection (global id space) ---------------------------------

  size_t num_users() const { return provider_->num_users(); }
  /// Ids admitted so far. May briefly LEAD query visibility while an
  /// append is in flight (it never lags it: any id a response contains is
  /// already counted). Do not derive readable ids from it during
  /// concurrent ingest — see OwnerOf.
  size_t num_items() const {
    return num_items_.load(std::memory_order_acquire);
  }
  /// Items not yet covered by indexes, summed over shards.
  size_t unindexed_items() const;
  /// `item` must be a published id (obtained from a response or an Add
  /// return value) — ids merely admitted by an in-flight append are not
  /// yet readable.
  UserId OwnerOf(ItemId item) const;
  /// Sorted, unique tags of `item` (copied out of the owning shard).
  std::vector<TagId> TagsOf(ItemId item) const;
  std::vector<UserId> FriendsOf(UserId user) const;
  /// Human-readable per-shard, per-algorithm query statistics plus the
  /// proximity and QoS lines.
  std::string StatsSummary() const;

 protected:
  /// `backend_label` empty selects "sharded/<N>". options.num_shards == 0
  /// (OpenFrom only) takes the shard count from the snapshot.
  SearchService(Options options, std::string backend_label);

  /// The bodies of Build and OpenSnapshot, run on a freshly constructed
  /// service. OpenFrom rejects a snapshot whose shard count differs from
  /// a non-zero options.num_shards.
  Status BuildFrom(SocialGraph graph, ItemStore store);
  Status OpenFrom(const std::string& dir,
                  const persist::SnapshotOpenOptions& open_options,
                  persist::WalReplayStats* replay_stats);

 private:
  using Clock = CancellationToken::Clock;

  /// Where a global item lives: shard g % N, local id g / N.
  struct ShardRef {
    size_t shard;
    ItemId local;
  };
  /// A request still being served, possibly a deeper owner-diversified
  /// round (see ExecuteRequests).
  struct Pending;
  /// One fan-out round's shared state (see DispatchRound).
  struct Round;

  ShardRef Locate(ItemId global) const;
  ItemId ToGlobal(size_t shard, ItemId local) const;

  /// Shared tail of BuildFrom / OpenFrom: label and fan-out pool.
  void StartServing();

  /// FanOutOnPool over this service's pool: fn(0) on the calling thread,
  /// the rest on the workers, per-call completion tracking.
  void RunFanOut(size_t count, const std::function<void(size_t)>& fn) const;

  /// True when any shard's current snapshot covers geo items (the
  /// precondition for honouring a geo-grid hint somewhere).
  bool AnyShardHasGeoItems() const;

  /// Executes `query` on shard `s` (honouring the algorithm hint, or the
  /// planned strategy when there is none, with an exact hybrid fallback
  /// where a geo-grid hint cannot apply locally —
  /// `geo_fallback_allowed` is AnyShardHasGeoItems() computed once per
  /// request) and translates result ids to the global space. `cancel`
  /// (null = never) is the row's deadline/abandonment token, probed
  /// cooperatively inside the shard's algorithm — an abandoned row's
  /// stragglers exit early instead of occupying pool slots.
  Result<QueryResult> QueryShard(size_t s, const SocialQuery& query,
                                 std::optional<AlgorithmId> hint,
                                 bool geo_fallback_allowed,
                                 const CancellationToken* cancel) const;

  /// The fan-out behind Search and SearchBatch, run AFTER the QoS edge
  /// decided the requests run (degrade overrides already applied): rounds
  /// of dispatch, wait and merge until every request is final.
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

  /// The QoS edge shared by Search and SearchBatch: admission verdict,
  /// degrade overrides, honest shed response, per-response accounting.
  /// `admission` may be null (pass-through).
  Result<SearchResponse> RunOneRequest(
      const SearchRequest& request,
      const std::shared_ptr<AdmissionController>& admission);

  /// Builds the well-formed empty response for a shed request.
  SearchResponse MakeShedResponse(const SearchRequest& request) const;

  /// Applies the controller's degrade overrides to `request`.
  static SearchRequest ApplyDegrade(const SearchRequest& request,
                                    const AdmissionController::Options& opts);

  /// Folds one finished response into the cumulative QoS counters.
  void AccountResponse(const Result<SearchResponse>& response);

  /// Shared edge-of-API path behind EnqueueAdd/RemoveFriendship:
  /// validates through the provider (see the contract above) and
  /// dispatches to the pipeline or the synchronous fallback under ONE
  /// pipeline snapshot.
  Result<IngestTicket> EnqueueFriendshipEdit(UserId u, UserId v, bool adding);

  /// Snapshots of the background objects. The mutex guards the POINTERS,
  /// not the objects: producers copy the shared_ptr and operate outside
  /// the lock, so a backpressure-blocked producer cannot deadlock
  /// StopIngest (which closes the queue to unblock it).
  std::shared_ptr<IngestPipeline> pipeline() const;
  std::shared_ptr<CompactionScheduler> scheduler() const;

  Options options_;
  std::string backend_label_;  // "sharded/<N>" unless the subclass names it
  /// The one graph + proximity surface every shard engine consumes.
  std::shared_ptr<ProximityProvider> provider_;
  std::vector<std::unique_ptr<SocialSearchEngine>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes mutators (item ingest, friendship edits).
  std::mutex writer_mutex_;
  std::atomic<size_t> num_items_{0};
  /// Snapshot attachment + WAL; guarded by writer_mutex_.
  ServicePersistState persist_;

  mutable std::mutex background_mutex_;
  std::shared_ptr<IngestPipeline> pipeline_;
  std::shared_ptr<CompactionScheduler> scheduler_;
  /// Admission controller; null = QoS edge disabled. Guarded by
  /// background_mutex_ (the pointer, not the object — queries copy the
  /// shared_ptr and run outside the lock).
  std::shared_ptr<AdmissionController> admission_;
  /// Cumulative QoS accounting (see QosCounters). Plain relaxed atomics:
  /// monotone counters, no cross-field consistency needed.
  std::atomic<uint64_t> qos_admitted_{0};
  std::atomic<uint64_t> qos_degraded_{0};
  std::atomic<uint64_t> qos_shed_{0};
  std::atomic<uint64_t> qos_truncated_{0};
  std::atomic<uint64_t> qos_deadline_exceeded_{0};
  std::atomic<uint64_t> qos_shards_abandoned_{0};
  std::atomic<uint64_t> qos_shards_failed_{0};
  /// Compactions triggered by schedulers that have since been stopped;
  /// guarded by background_mutex_ and updated in the SAME critical
  /// section that unregisters the scheduler, so auto_compactions() is
  /// cumulative across restarts and never transiently drops.
  uint64_t retired_auto_compactions_ = 0;
  /// Serializes StopIngest / StopAutoCompaction end to end (including
  /// the drain/join, which runs outside background_mutex_): a concurrent
  /// second Stop caller must not return before the first caller's drain
  /// finished — callers use Stop's return as "no background thread is
  /// touching this object any more" (the destructor relies on it).
  std::mutex shutdown_mutex_;
};

/// Folds `from` into `into` (counter-wise sum) — the per-shard stats
/// merge every response goes through.
void MergeSearchStats(const SearchStats& from, SearchStats* into);

/// Runs fn(0..count) with fn(0) on the calling thread and the rest on
/// `pool`, waiting for per-call completion — NOT pool-wide idleness
/// (ThreadPool::ParallelFor's WaitIdle would make concurrent callers
/// sharing one pool serialize on, and potentially starve behind, each
/// other's work). Must not be called from inside one of its own pool
/// tasks.
void FanOutOnPool(ThreadPool* pool, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace amici

#endif  // AMICI_SERVICE_SEARCH_SERVICE_H_
