#ifndef AMICI_TOPK_THRESHOLD_ALGORITHM_H_
#define AMICI_TOPK_THRESHOLD_ALGORITHM_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "storage/posting_list.h"
#include "util/cancellation.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

/// A stream of (item, partial score) pairs in non-increasing partial-score
/// order — the "sorted access" abstraction of Fagin-style rank
/// aggregation. Implementations wrap impact-ordered posting lists and the
/// lazily-expanded social stream.
class SortedSource {
 public:
  virtual ~SortedSource() = default;

  /// False once the stream is exhausted.
  virtual bool Valid() const = 0;

  /// Current (item, partial score); requires Valid().
  virtual ScoredItem Current() const = 0;

  /// Advances to the next entry.
  virtual void Next() = 0;
};

/// Counters describing how much work a rank-aggregation run performed.
struct AggregationStats {
  uint64_t sorted_accesses = 0;
  uint64_t random_accesses = 0;
  uint64_t candidates_scored = 0;
  /// Posting-list block traversal: blocks actually decoded vs blocks
  /// passed over undecoded (SeekGeq jumps and block-max pruning).
  /// Populated by the algorithms that walk PostingList iterators; summed
  /// across shards in SearchResponse::stats.
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
};

/// Chooses which source to pull next, given the current per-source upper
/// bounds (0 for exhausted sources). Returning an exhausted source is
/// tolerated — the engine falls back to the best valid one. This is the
/// knob that turns the single TA engine into content-first (content-biased
/// pulls), social-first (social-biased) or hybrid (greedy max-bound) — see
/// BlendedTa in src/core/ta_runner.h.
using PullPolicy = std::function<size_t(std::span<const double> bounds)>;

/// Fagin's Threshold Algorithm with summation aggregation.
///
/// Invariants required for exactness:
///  * every item with a positive total score appears in >= 1 source;
///  * each source's partial scores are non-increasing;
///  * score_of(item) >= the partial any source reports for that item, and
///    total score == sum of the item's partials across all sources.
///
/// Termination: once k results are held and the k-th score is >= the
/// threshold (sum of current per-source bounds), no unseen item can beat
/// the heap. Ties at the k-th score may be broken arbitrarily.
///
/// `filter` (optional) drops items before scoring — used for geo
/// restriction; exactness then holds w.r.t. the filtered corpus.
///
/// `cancel` (optional): once expired, the run stops at the next sorted
/// access, sets *truncated (when given), and returns the best-effort
/// top-k of the candidates scored so far.
Result<std::vector<ScoredItem>> RunThresholdAlgorithm(
    std::span<SortedSource* const> sources,
    const std::function<double(ItemId)>& score_of, size_t k,
    const PullPolicy& pull_policy, const std::function<bool(ItemId)>& filter,
    AggregationStats* stats, const CancellationToken* cancel = nullptr,
    bool* truncated = nullptr);

/// Ready-made pull policies.

/// Greedy: always pull the source with the largest current bound.
/// Simple, but can fixate on one long, flat list; prefer
/// MakeBoundProportionalPull for adaptive scheduling.
size_t MaxBoundPull(std::span<const double> bounds);

/// Adaptive stride scheduling: each source receives sorted accesses at a
/// frequency proportional to its current upper bound, re-balancing as the
/// bounds drain. With a dominant social term (large alpha) almost every
/// pull goes to the social stream; with dominant content bounds the tag
/// lists share the pulls — the policy morphs between the ContentFirst and
/// SocialFirst extremes query-adaptively. This is the hybrid strategy's
/// scheduler.
PullPolicy MakeBoundProportionalPull();

/// Weighted bias: pulls `preferred` sources `weight` times more often than
/// the rest (round-robin within each class). `preferred[i]` marks source i
/// as favoured.
PullPolicy MakeBiasedPull(std::vector<bool> preferred, uint32_t weight);

}  // namespace amici

#endif  // AMICI_TOPK_THRESHOLD_ALGORITHM_H_
