#ifndef AMICI_INDEX_INVERTED_INDEX_H_
#define AMICI_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/item_store.h"
#include "storage/posting_list.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

/// Dual-representation inverted tag index:
///
///  * a compressed, document-ordered PostingList per tag — candidate
///    enumeration and conjunctive merging (ExhaustiveScan, MergeScan);
///  * an impact-ordered array per tag (items sorted by decreasing static
///    quality) — the sorted-access stream consumed by content-first TA.
///
/// The impact order is by item quality, which is exactly the per-tag
/// contribution to the content score (see Scorer), so impact-ordered
/// traversal yields monotonically non-increasing score bounds.
///
/// Both representations are held through shared, immutable list handles
/// (null = empty list): MergeFrom() builds a successor index that
/// REBUILDS only the lists the ingest tail touches and SHARES every
/// other list pointer-identically with this index — the structural
/// sharing that makes incremental (LSM-style) compaction O(tail +
/// touched lists) instead of O(catalogue).
class InvertedIndex {
 public:
  struct Options {
    PostingList::Options posting_options;
    /// When false, the impact-ordered arrays are not materialized
    /// (Table 3 ablation: TA then falls back to doc-ordered traversal).
    bool build_impact_ordered = true;
  };

  InvertedIndex() = default;

  /// Builds the index over every item visible in `store`. Tag universe
  /// size is taken from the view, so a bounded snapshot view yields an
  /// index over exactly that catalogue prefix.
  static Result<InvertedIndex> Build(ItemStoreView store,
                                     const Options& options);
  static Result<InvertedIndex> Build(ItemStoreView store);

  /// Incremental (LSM-style) merge: returns the index over
  /// store[0, store.num_items()) given that THIS index covers exactly
  /// [0, base_horizon). Only the lists of tags carried by tail items
  /// (ids >= base_horizon) are rebuilt — existing postings are decoded
  /// and re-scored through the store (qualities are immutable), tail
  /// postings appended — while every untouched tag shares its lists
  /// pointer-identically with this index. Bit-identical to
  /// Build(store, options). `lists_touched`, when non-null, is
  /// incremented by the number of tags whose lists were rebuilt.
  Result<InvertedIndex> MergeFrom(ItemStoreView store, ItemId base_horizon,
                                  const Options& options,
                                  uint64_t* lists_touched) const;

  /// Reassembles an index from persisted parts (src/persist/): per-tag
  /// doc-ordered list handles and impact-ordered arrays, null = tag with
  /// no postings. Both vectors must be tag-universe sized (impact vector
  /// empty when not materialized). The caller (SnapshotReader) has
  /// already checksum-verified and structurally validated every list.
  static InvertedIndex Restore(
      std::vector<std::shared_ptr<const PostingList>> doc_ordered,
      std::vector<std::shared_ptr<const std::vector<ScoredItem>>>
          impact_ordered,
      bool has_impact_ordered);

  /// Number of distinct tags covered (= tag universe size at build).
  size_t num_tags() const { return doc_ordered_.size(); }

  /// Number of items carrying `tag` (0 for out-of-range tags).
  size_t DocumentFrequency(TagId tag) const;

  /// The tag of `tags` (non-empty) with the fewest postings, the first
  /// such on ties. Its list enumerates every item carrying all of `tags`,
  /// so it drives conjunctive (kAll) scans and their cost estimates.
  TagId RarestTag(std::span<const TagId> tags) const;

  /// Document-ordered compressed postings of `tag`; empty list for
  /// out-of-range tags.
  const PostingList& Postings(TagId tag) const;

  /// The shared handle behind Postings() — null for empty/out-of-range
  /// tags. Exposed so tests can assert structural sharing across merged
  /// generations by pointer equality.
  std::shared_ptr<const PostingList> PostingsHandle(TagId tag) const;

  /// Impact-ordered (quality-descending) postings of `tag`; empty span if
  /// not materialized or out of range.
  std::span<const ScoredItem> ImpactOrdered(TagId tag) const;

  bool has_impact_ordered() const { return has_impact_ordered_; }

  /// Approximate heap footprint in bytes. Lists shared with other index
  /// generations are counted here too (they are reachable from this one).
  size_t MemoryBytes() const;

 private:
  using ListHandle = std::shared_ptr<const PostingList>;
  using ImpactHandle = std::shared_ptr<const std::vector<ScoredItem>>;

  std::vector<ListHandle> doc_ordered_;     // null = no postings
  std::vector<ImpactHandle> impact_ordered_;  // null = no postings
  bool has_impact_ordered_ = false;
  PostingList empty_list_;
};

}  // namespace amici

#endif  // AMICI_INDEX_INVERTED_INDEX_H_
