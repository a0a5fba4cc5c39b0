#include "index/inverted_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace amici {

Result<InvertedIndex> InvertedIndex::Build(ItemStoreView store) {
  return Build(store, Options());
}

Result<InvertedIndex> InvertedIndex::Build(ItemStoreView store,
                                           const Options& options) {
  InvertedIndex index;
  const size_t num_tags = store.TagUniverseSize();

  // Bucket postings per tag in one pass over the store; items are visited
  // in ascending id order, so each bucket is already document-ordered.
  std::vector<std::vector<ScoredItem>> buckets(num_tags);
  for (size_t i = 0; i < store.num_items(); ++i) {
    const ItemId item = static_cast<ItemId>(i);
    const float quality = store.quality(item);
    for (const TagId tag : store.tags(item)) {
      buckets[tag].push_back({item, quality});
    }
  }

  index.doc_ordered_.resize(num_tags);
  for (size_t tag = 0; tag < num_tags; ++tag) {
    if (buckets[tag].empty()) continue;  // null handle = empty list
    AMICI_ASSIGN_OR_RETURN(
        PostingList list,
        PostingList::Build(buckets[tag], options.posting_options));
    index.doc_ordered_[tag] =
        std::make_shared<const PostingList>(std::move(list));
  }

  index.has_impact_ordered_ = options.build_impact_ordered;
  if (options.build_impact_ordered) {
    index.impact_ordered_.resize(num_tags);
    for (size_t tag = 0; tag < num_tags; ++tag) {
      if (buckets[tag].empty()) continue;
      std::sort(buckets[tag].begin(), buckets[tag].end(), ScoreDescItemAsc);
      buckets[tag].shrink_to_fit();
      index.impact_ordered_[tag] =
          std::make_shared<const std::vector<ScoredItem>>(
              std::move(buckets[tag]));
    }
  }
  return index;
}

InvertedIndex InvertedIndex::Restore(
    std::vector<std::shared_ptr<const PostingList>> doc_ordered,
    std::vector<std::shared_ptr<const std::vector<ScoredItem>>> impact_ordered,
    bool has_impact_ordered) {
  InvertedIndex index;
  index.doc_ordered_ = std::move(doc_ordered);
  index.impact_ordered_ = std::move(impact_ordered);
  index.has_impact_ordered_ = has_impact_ordered;
  return index;
}

Result<InvertedIndex> InvertedIndex::MergeFrom(ItemStoreView store,
                                               ItemId base_horizon,
                                               const Options& options,
                                               uint64_t* lists_touched) const {
  if (static_cast<size_t>(base_horizon) > store.num_items()) {
    return Status::InvalidArgument("base horizon beyond the store view");
  }
  if (options.build_impact_ordered != has_impact_ordered_ &&
      base_horizon > 0) {
    // An engine's index options are immutable, so this only fires on
    // misuse; merging across the ablation knob would leave untouched
    // tags without (or with orphaned) impact arrays.
    return Status::InvalidArgument(
        "impact-ordered availability must match the base index");
  }
  const size_t num_tags = store.TagUniverseSize();

  // Bucket the tail per touched tag. Items are visited in ascending id
  // order and every tail id exceeds every indexed id, so each bucket is
  // the document-ordered continuation of the base list.
  std::unordered_map<TagId, std::vector<ScoredItem>> tail_buckets;
  for (size_t i = base_horizon; i < store.num_items(); ++i) {
    const ItemId item = static_cast<ItemId>(i);
    const float quality = store.quality(item);
    for (const TagId tag : store.tags(item)) {
      tail_buckets[tag].push_back({item, quality});
    }
  }

  InvertedIndex merged;
  merged.doc_ordered_ = doc_ordered_;  // O(num_tags) handle copies
  merged.doc_ordered_.resize(num_tags);
  merged.has_impact_ordered_ = options.build_impact_ordered;
  if (options.build_impact_ordered) {
    merged.impact_ordered_ = impact_ordered_;
    merged.impact_ordered_.resize(num_tags);
  }

  const auto score_of = [&store](ItemId item) { return store.quality(item); };
  for (auto& [tag, tail] : tail_buckets) {
    const ListHandle base =
        tag < doc_ordered_.size() ? doc_ordered_[tag] : nullptr;
    PostingList list;
    if (base != nullptr) {
      AMICI_ASSIGN_OR_RETURN(list, base->MergeFrom(tail, score_of));
    } else {
      AMICI_ASSIGN_OR_RETURN(list,
                             PostingList::Build(tail, options.posting_options));
    }
    merged.doc_ordered_[tag] =
        std::make_shared<const PostingList>(std::move(list));

    if (options.build_impact_ordered) {
      const std::span<const ScoredItem> base_impact = ImpactOrdered(tag);
      std::vector<ScoredItem> impact;
      impact.reserve(base_impact.size() + tail.size());
      impact.insert(impact.end(), base_impact.begin(), base_impact.end());
      impact.insert(impact.end(), tail.begin(), tail.end());
      std::sort(impact.begin(), impact.end(), ScoreDescItemAsc);
      merged.impact_ordered_[tag] =
          std::make_shared<const std::vector<ScoredItem>>(std::move(impact));
    }
    if (lists_touched != nullptr) ++*lists_touched;
  }
  return merged;
}

size_t InvertedIndex::DocumentFrequency(TagId tag) const {
  if (tag >= doc_ordered_.size() || doc_ordered_[tag] == nullptr) return 0;
  return doc_ordered_[tag]->size();
}

TagId InvertedIndex::RarestTag(std::span<const TagId> tags) const {
  AMICI_CHECK(!tags.empty());
  TagId rarest = tags[0];
  size_t rarest_df = DocumentFrequency(rarest);
  for (const TagId tag : tags.subspan(1)) {
    const size_t df = DocumentFrequency(tag);
    if (df < rarest_df) {
      rarest = tag;
      rarest_df = df;
    }
  }
  return rarest;
}

const PostingList& InvertedIndex::Postings(TagId tag) const {
  if (tag >= doc_ordered_.size() || doc_ordered_[tag] == nullptr) {
    return empty_list_;
  }
  return *doc_ordered_[tag];
}

std::shared_ptr<const PostingList> InvertedIndex::PostingsHandle(
    TagId tag) const {
  if (tag >= doc_ordered_.size()) return nullptr;
  return doc_ordered_[tag];
}

std::span<const ScoredItem> InvertedIndex::ImpactOrdered(TagId tag) const {
  if (!has_impact_ordered_ || tag >= impact_ordered_.size() ||
      impact_ordered_[tag] == nullptr) {
    return {};
  }
  return *impact_ordered_[tag];
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& list : doc_ordered_) {
    if (list != nullptr) bytes += list->SizeBytes();
  }
  for (const auto& list : impact_ordered_) {
    if (list != nullptr) bytes += list->capacity() * sizeof(ScoredItem);
  }
  return bytes;
}

}  // namespace amici
