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
#include "storage/item_store.h"
#include "util/cancellation.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

/// One query through the service surface: the SocialQuery plus the
/// options that used to be separate engine entry points (algorithm
/// override, owner diversity, deadline). A plain default-constructed
/// request with just `query` filled in reproduces the old
/// `engine.Query(query)` behaviour on any backend.
struct SearchRequest {
  SocialQuery query;
  /// Execution-strategy hint; nullopt lets the backend choose (hybrid).
  /// Backends may substitute an equivalent strategy where the hint cannot
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
  /// truncated marks the best-effort partial). The sharded backend
  /// additionally abandons whole shards at the fan-out barrier and
  /// cancels their stragglers (deadline_exceeded = true, shards_touched /
  /// shards_abandoned = how the fan-out split); the response is the
  /// exact-over-completed merge of whatever the deadline allowed.
  double timeout_ms = 0.0;
};

/// The outcome of one service request, backend-agnostic: item ids are in
/// the service's GLOBAL id space regardless of how the backend partitions
/// the catalogue.
struct SearchResponse {
  /// Best-first (score-descending, item-id-ascending tie-break) results,
  /// at most `query.k` entries.
  std::vector<ScoredItem> items;
  /// Work counters, summed across every shard that executed.
  SearchStats stats;
  /// End-to-end latency observed by the service, including fan-out and
  /// merge for partitioned backends.
  double elapsed_ms = 0.0;
  /// Which strategy executed (the hint, or the backend default). When a
  /// partitioned backend substituted an equivalent strategy on SOME
  /// shards only (see SearchRequest::algorithm), the hint's name is kept;
  /// if every shard substituted, the substitute's name is reported.
  std::string_view algorithm;
  /// Which backend served the request ("local", "sharded/4", ...).
  std::string_view backend;
  /// How many partitions contributed results. Normally the backend's
  /// shard count (1 for local); fewer when a deadline abandoned slow
  /// shards mid-fan-out or a shard failed (see shards_abandoned /
  /// shards_failed).
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
  /// (substituted algorithm / capped k / clamped deadline — see
  /// AdmissionController::Options). Results are exact for WHAT RAN, but
  /// not what was requested.
  bool degraded = false;
  /// True when admission control refused to run this request: a
  /// well-formed empty response, not an error and never a silent drop.
  bool shed = false;
};

/// The backend-agnostic query surface: everything callers (examples,
/// benches, tests, a future RPC layer) need, with no mention of how the
/// corpus is laid out behind it. Which partition serves a request is a
/// routing decision inside the implementation, not a caller concern.
///
/// Contract shared by all implementations:
///  * Search / SearchBatch / SuggestTags are safe from any number of
///    threads, concurrently with each other AND with all mutators;
///  * AddItem / AddItems / AddFriendship / RemoveFriendship / Compact are
///    safe concurrently with queries and serialize among themselves;
///  * Search / SearchBatch results are EXACT and identical across
///    backends: the same corpus behind a local and a sharded service
///    returns the same items with the same scores (see
///    tests/service/sharded_invariance_test.cc). SuggestTags support
///    counts and thresholds are likewise exact everywhere; suggestion
///    WEIGHTS may differ across backends in the last float ulps
///    (per-shard float subtotals vs one double sum), which can reorder
///    near-tied tags.
///
/// The base class additionally owns the OPTIONAL background machinery of
/// the ingest subsystem (src/ingest/): an MPSC queue + writer thread
/// (StartIngest / EnqueueItems / Flush) and a background compaction
/// scheduler (StartAutoCompaction). Both drain into the implementation's
/// synchronous mutators via the IngestSink / CompactionTarget interfaces
/// the implementation provides. IMPORTANT for implementers: destructors
/// of concrete backends must call ShutdownBackgroundWork() FIRST — the
/// background threads call the implementation's virtuals and must be
/// joined while the derived object is still alive.
class SearchService : public IngestSink, public CompactionTarget {
 public:
  ~SearchService() override = default;

  /// Stable backend label ("local", "sharded/4").
  virtual std::string_view backend_name() const = 0;
  // num_shards() — number of partitions behind the surface (1 for local)
  // — is inherited from CompactionTarget, alongside ShardSignals() /
  // CompactShard(), the per-shard compaction surface the background
  // scheduler drives.

  /// Executes one request (plain or owner-diversified top-k) through the
  /// QoS edge: request validation (InvalidArgument for an unusable
  /// timeout_ms), then admission control (when enabled — may shed or
  /// degrade, reported honestly in the response), then the backend.
  /// Non-virtual on purpose: the edge is the ONE place every query
  /// passes, whatever the backend (template method over SearchImpl).
  Result<SearchResponse> Search(const SearchRequest& request);

  /// Executes a batch; results are positionally aligned with `requests`.
  /// Backends parallelize internally where they can. Validation and
  /// admission are per-request: some rows of one batch may run while
  /// others are rejected or shed.
  std::vector<Result<SearchResponse>> SearchBatch(
      std::span<const SearchRequest> requests);

  /// Estimated work for `query` on this backend, in candidate units
  /// (posting entries the tag lists would feed the algorithm + un-indexed
  /// tail items scanned per query). Reads the current snapshot(s); cheap
  /// (per-tag document frequencies, no traversal). The admission
  /// controller's cost gates compare against this number.
  virtual uint64_t EstimateQueryCost(const SocialQuery& query) const = 0;

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
  /// user's social neighbourhood (see query_expansion.h). Partitioned
  /// backends union-merge per-shard evidence, applying min_cooccurrence
  /// on the global support count.
  virtual Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options = QueryExpansionOptions()) = 0;

  /// The ONE graph + proximity surface behind this service. Every engine
  /// the backend runs consumes this same provider, so the graph and the
  /// proximity score cache exist exactly once regardless of shard count.
  virtual std::shared_ptr<ProximityProvider> proximity_provider() const = 0;

  /// Provider counter snapshot (computations, cache hits, in-flight
  /// joins, warm-over work, generations) — the service-stats surface of
  /// the shared proximity layer; per-request counters additionally ride
  /// in SearchResponse::stats.
  ProximityProviderStats proximity_stats() const {
    return proximity_provider()->stats();
  }

  /// Appends one item; returns its GLOBAL id. Ids are assigned densely in
  /// ingest order on every backend.
  virtual Result<ItemId> AddItem(const Item& item) = 0;

  // AddItems (batch, atomic, one snapshot publish per touched shard,
  // global ids in batch order) and AddFriendship / RemoveFriendship
  // (engine status semantics: AlreadyExists / NotFound) are inherited
  // from IngestSink — they are exactly what the writer thread drains
  // into.

  /// Folds every un-indexed tail into fresh indexes (all shards).
  virtual Status Compact() = 0;

  /// Persists the full service state into `dir` and commits it
  /// atomically (see src/service/service_persistence.h for the layout
  /// and protocol), then attaches a fresh ingest WAL: every subsequent
  /// mutation is logged and fdatasync-flushed before it is acknowledged,
  /// so reopening the directory replays exactly the acknowledged tail.
  /// Incremental when `dir` already holds a compatible snapshot.
  /// Serializes with the other mutators; queries are unaffected.
  virtual Result<persist::SnapshotSaveReport> SaveSnapshot(
      const std::string& dir) = 0;

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

 protected:
  /// Backend execution of one request / one batch, AFTER the QoS edge
  /// decided the request runs (possibly with degrade overrides already
  /// applied to `request`). Implementations must not call the public
  /// Search/SearchBatch from inside these (double admission).
  virtual Result<SearchResponse> SearchImpl(const SearchRequest& request) = 0;
  virtual std::vector<Result<SearchResponse>> SearchBatchImpl(
      std::span<const SearchRequest> requests) = 0;

  /// Stops the background threads (scheduler first, then the ingest
  /// drain). EVERY concrete backend's destructor must call this before
  /// tearing anything else down — see the class comment.
  void ShutdownBackgroundWork();

 public:
  // --- Introspection (global id space) ---------------------------------

  virtual size_t num_users() const = 0;
  virtual size_t num_items() const = 0;
  /// Items not yet covered by indexes, summed over shards.
  virtual size_t unindexed_items() const = 0;
  virtual UserId OwnerOf(ItemId item) const = 0;
  /// Sorted, unique tags of `item` (copied: partitioned backends cannot
  /// hand out a stable span across the service boundary).
  virtual std::vector<TagId> TagsOf(ItemId item) const = 0;
  virtual std::vector<UserId> FriendsOf(UserId user) const = 0;
  /// Human-readable per-algorithm query statistics (per shard when
  /// partitioned).
  virtual std::string StatsSummary() const = 0;

 private:
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
  /// touching this object any more" (destructors rely on it).
  std::mutex shutdown_mutex_;
};

/// Folds `from` into `into` (counter-wise sum) — the per-shard stats
/// merge every partitioned response goes through.
void MergeSearchStats(const SearchStats& from, SearchStats* into);

class ThreadPool;

/// Runs fn(0..count) with fn(0) on the calling thread and the rest on
/// `pool`, waiting for per-call completion — NOT pool-wide idleness
/// (ThreadPool::ParallelFor's WaitIdle would make concurrent callers
/// sharing one pool serialize on, and potentially starve behind, each
/// other's work). Must not be called from inside one of its own pool
/// tasks. Shared by the backends' batch and fan-out paths.
void FanOutOnPool(ThreadPool* pool, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace amici

#endif  // AMICI_SERVICE_SEARCH_SERVICE_H_
