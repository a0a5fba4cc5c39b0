#include "core/exhaustive_scan.h"

#include "core/scorer.h"
#include "storage/posting_list.h"
#include "topk/topk_heap.h"

namespace amici {

Result<std::vector<ScoredItem>> ExhaustiveScan::Search(
    const QueryContext& ctx, SearchStats* stats) const {
  const SocialQuery& query = *ctx.query;
  Scorer scorer(ctx.store, ctx.proximity, &query);
  TopKHeap heap(query.k);
  SearchStats local;
  CancellationTicker ticker(ctx.cancel);

  if (query.mode == MatchMode::kAll && !query.tags.empty()) {
    // Conjunctive queries: every eligible item carries every query tag,
    // so the rarest tag's posting list already enumerates a superset of
    // the eligible corpus — same exact contract as the id sweep below
    // (Eligible() is still checked per item), far fewer candidates, and
    // the block-max skip table discards blocks that cannot beat the
    // current floor. items_considered counts list entries examined.
    const double alpha = query.alpha;
    const double content_weight = 1.0 - alpha;
    auto it =
        ctx.inverted->Postings(ctx.inverted->RarestTag(query.tags))
            .NewIterator();
    while (it.Valid()) {
      if (ticker.Check()) {
        local.truncated = true;
        break;
      }
      // An eligible item scores at most alpha * 1 + (1 - alpha) * block
      // quality bound; see kBlockMaxPruneSlack for why this is exact.
      if (content_weight > 0.0 && heap.full()) {
        const double quality_needed =
            (heap.KthScore() - kBlockMaxPruneSlack - alpha) / content_weight;
        if (!it.SkipToBlockWithBoundAbove(quality_needed)) break;
      }
      const ItemId item = it.Doc();
      it.Next();
      if (item >= ctx.index_horizon) continue;
      ++local.items_considered;
      if (!scorer.Eligible(item)) continue;
      if (ctx.filter != nullptr && !ctx.filter(item)) continue;
      const double score = scorer.Score(item);
      if (score > 0.0) heap.Push(item, score);
    }
    local.aggregation.blocks_decoded += it.blocks_decoded();
    local.aggregation.blocks_skipped += it.blocks_skipped();
  } else {
    for (ItemId item = 0; item < ctx.index_horizon; ++item) {
      if (ticker.Check()) {
        local.truncated = true;
        break;
      }
      ++local.items_considered;
      if (!scorer.Eligible(item)) continue;
      if (ctx.filter != nullptr && !ctx.filter(item)) continue;
      const double score = scorer.Score(item);
      if (score > 0.0) heap.Push(item, score);
    }
  }
  if (stats != nullptr) *stats = local;
  return heap.TakeSorted();
}

}  // namespace amici
