#ifndef AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_
#define AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "graph/social_graph.h"
#include "proximity/proximity_model.h"
#include "proximity_service/delta_overlay_graph.h"
#include "proximity_service/overlay_fold_policy.h"
#include "util/atomic_shared_ptr.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

class SingleFlightProximity;
class WarmOverWorker;

/// How one GetProximity call was satisfied (per-request observability:
/// the engine folds this into SearchStats, so SearchResponse reports how
/// much proximity work a request actually caused).
enum class ProximityOutcome {
  /// Served from the shared generation-keyed cache.
  kCacheHit,
  /// This call ran the model (the expensive path).
  kComputed,
  /// A concurrent call for the same (user, generation) was already
  /// computing; this call waited for its result instead of duplicating
  /// the work (single-flight).
  kJoinedInFlight,
};

/// Cumulative counters of one provider instance. `computations` is the
/// number the whole redesign exists to minimize: with one provider shared
/// across N shards, a cache-missed user costs 1 computation per (user,
/// generation) — not N.
struct ProximityProviderStats {
  /// ProximityModel::Compute calls (queries + warm-over).
  uint64_t computations = 0;
  /// GetProximity calls served from the cache.
  uint64_t cache_hits = 0;
  /// GetProximity calls that joined a concurrent in-flight computation.
  uint64_t inflight_joins = 0;
  /// Entries precomputed by the background warm-over after a generation
  /// bump (a subset of `computations`).
  uint64_t warmed = 0;
  /// Graph generations published by friendship edits (0 = initial graph).
  /// Folds do NOT bump this — a fold changes the representation, not the
  /// graph.
  uint64_t generations_published = 0;
  /// Vectors currently resident in the cache.
  size_t cache_entries = 0;
  /// Replacement rows currently overlaying the base CSR.
  size_t overlay_rows = 0;
  /// Folds performed (patch merged into a fresh base CSR).
  uint64_t overlay_folds = 0;
};

/// The one shared graph + proximity surface behind every engine and
/// shard: one graph, one model, one generation-keyed LRU cache. An
/// N-shard service constructs exactly one provider, which is what
/// collapses N graph replicas into one and N cache-miss proximity
/// computations into 1 per (user, generation).
///
/// The provider owns the social graph (publishing new generations
/// RCU-style, exactly like engine snapshots), the proximity model, and
/// the score cache. Engines CONSUME it: they pin a (graph, generation)
/// pair into each EngineSnapshot and ask the provider for proximity
/// vectors against that pinned pair, so a query racing a friendship edit
/// is always scored against one consistent generation.
///
///  * single-flight: concurrent GetProximity misses for the same (user,
///    generation) share ONE model computation;
///  * warm-over: after a friendship edit publishes a new generation, a
///    background thread recomputes the top-`warm_top_n` hottest users
///    against the new graph;
///  * delta-overlay edits: AddFriendship/RemoveFriendship replace the two
///    endpoint adjacency rows in a patch over the immutable base CSR —
///    O(deg(u) + deg(v)) plus an O(patch rows) shallow map clone, not an
///    O(E) CSR rebuild — and the fold policy decides when the patch is
///    folded into a fresh base. The O(E) flatten runs OFF the writer lock
///    and republishes the SAME generation (representation change only),
///    so concurrent edits and readers never wait on it.
///
/// Thread-safety contract:
///  * Acquire / GetProximity / stats are safe from any number of threads,
///    concurrently with each other AND with friendship edits;
///  * AddFriendship / RemoveFriendship serialize among themselves and
///    publish atomically — readers holding an older generation keep it
///    alive via the shared_ptr and are never invalidated mid-query.
class ProximityProvider {
 public:
  /// One published (graph, generation) pair. Holding `graph` pins that
  /// generation for as long as the caller keeps the pointer.
  struct GraphView {
    std::shared_ptr<const SocialGraph> graph;
    uint64_t generation = 0;
  };

  struct Options {
    /// Null selects forward-push PPR (restart 0.15, epsilon 1e-4) — the
    /// same default the engine always used.
    std::shared_ptr<const ProximityModel> model;
    /// LRU capacity of the score cache; clamped to >= 1.
    size_t cache_capacity = 4096;
    /// Hottest users recomputed in the background after a generation
    /// bump. 0 disables warm-over (useful for exact-count tests).
    size_t warm_top_n = 16;
    /// When to fold the overlay patch into a fresh base CSR.
    AdaptiveOverlayFoldPolicy fold_policy;
  };

  /// Takes ownership of `graph` as generation 0 (any overlay it carries,
  /// e.g. restored from a snapshot's overlay tail, is adopted as the
  /// starting patch).
  ProximityProvider(SocialGraph graph, Options options);

  /// Joins the warm-over worker.
  ~ProximityProvider();

  ProximityProvider(const ProximityProvider&) = delete;
  ProximityProvider& operator=(const ProximityProvider&) = delete;

  /// The current graph generation (lock-free load).
  GraphView Acquire() const { return *state_.load(); }

  /// Returns the proximity vector of `source` computed against `graph` /
  /// `generation` — normally the pair the caller pinned via Acquire() (or
  /// an EngineSnapshot). Cached per (source, generation); concurrent
  /// misses for the same key share ONE computation. `outcome`, when
  /// non-null, reports how the call was satisfied.
  std::shared_ptr<const ProximityVector> GetProximity(
      const SocialGraph& graph, UserId source, uint64_t generation,
      ProximityOutcome* outcome = nullptr);

  /// Edits one undirected edge and publishes a new graph generation.
  /// Validation happens here — the single place the graph lives:
  /// endpoints outside the graph and self-edges are InvalidArgument,
  /// duplicate adds are AlreadyExists, missing removes are NotFound; no
  /// rebuild happens on any rejected edit.
  Status AddFriendship(UserId u, UserId v);
  Status RemoveFriendship(UserId u, UserId v);

  /// Validation-only preview of Add/RemoveFriendship against the CURRENT
  /// generation — the same rules the edit itself applies, with no
  /// rebuild and no publish. `check_existence` false limits it to the
  /// structural rules (endpoint range, self-edge), for callers that must
  /// not judge edge existence against a graph that queued edits may
  /// still change (see SearchService::EnqueueAddFriendship).
  Status ValidateEdit(UserId u, UserId v, bool adding,
                      bool check_existence) const;

  /// The proximity model scores are computed with (pure and stateless).
  const ProximityModel& model() const { return *model_; }

  /// Counter snapshot (internally consistent enough for tests: counters
  /// are monotone and quiesced reads are exact).
  ProximityProviderStats stats() const;

  /// Blocks until every background warm-over round queued so far has
  /// been applied or superseded. No-op when warm-over is off.
  void WaitForWarmup();

  /// Forces the delta-overlay patch (if any) to fold into a fresh base
  /// CSR, regardless of the fold policy; returns the number of patch
  /// rows folded away. Representation-only: the published graph content
  /// and generation are unchanged.
  size_t FoldOverlay();

  /// Users in the current graph generation (graphs never change their
  /// vertex set — edits rewire edges only).
  size_t num_users() const { return Acquire().graph->num_users(); }

 private:
  /// Shared edit path: validates, applies both halves to the overlay,
  /// publishes the next generation, queues a warm-over round, and
  /// triggers a fold when the policy says so.
  Status EditEdge(UserId u, UserId v, bool insert);

  std::shared_ptr<const ProximityModel> model_;
  const AdaptiveOverlayFoldPolicy fold_policy_;
  const size_t warm_top_n_;

  /// Writer-side graph state — guarded by writer_mutex_, except that the
  /// fold's O(E) flatten runs between two critical sections (see
  /// DeltaOverlayGraph's fold protocol).
  DeltaOverlayGraph delta_;

  /// The published (graph, generation) pair — readers load lock-free,
  /// edits store under writer_mutex_ (RCU-style, like engine snapshots).
  AtomicSharedPtr<const GraphView> state_;
  mutable std::mutex writer_mutex_;

  std::unique_ptr<SingleFlightProximity> flight_;
  std::atomic<uint64_t> warmed_{0};
  std::atomic<uint64_t> generations_{0};
  std::atomic<uint64_t> folds_{0};

  /// Declared after flight_ so the worker thread (which calls into
  /// flight_) is joined before the flight machinery dies. Null when
  /// warm-over is off.
  std::unique_ptr<WarmOverWorker> warm_;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_
