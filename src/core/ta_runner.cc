#include "core/ta_runner.h"

#include <functional>
#include <memory>
#include <vector>

#include "core/scorer.h"
#include "core/ta_sources.h"
#include "util/logging.h"

namespace amici {
namespace {

/// How strongly the biased policies favour their preferred source class.
constexpr uint32_t kBiasWeight = 8;

/// The sorted sources of one blended query: per-tag impact-ordered lists
/// (weight (1-alpha)/|tags|) followed by the social stream (weight alpha).
/// Zero-weight sources are omitted.
struct BlendedSources {
  std::vector<std::unique_ptr<SortedSource>> owned;
  /// Parallel to `owned`: true for tag-list sources.
  std::vector<bool> is_content;
};

/// Assembles the sorted sources for `ctx`. Requires impact-ordered lists
/// when alpha < 1; returns FailedPrecondition otherwise.
Result<BlendedSources> BuildBlendedSources(const QueryContext& ctx) {
  const SocialQuery& query = *ctx.query;
  if (!ctx.inverted->has_impact_ordered() && query.alpha < 1.0) {
    return Status::FailedPrecondition(
        "TA algorithms need impact-ordered posting lists "
        "(InvertedIndex::Options::build_impact_ordered)");
  }
  BlendedSources sources;
  // Guard the division: a tag-less query (alpha == 1.0) has no content
  // dimension at all, and 0.0 / 0.0 would poison the weight with NaN.
  const double content_weight =
      query.tags.empty()
          ? 0.0
          : (1.0 - query.alpha) / static_cast<double>(query.tags.size());
  if (content_weight > 0.0) {
    for (const TagId tag : query.tags) {
      sources.owned.push_back(std::make_unique<ImpactListSource>(
          ctx.inverted->ImpactOrdered(tag), content_weight,
          ctx.index_horizon));
      sources.is_content.push_back(true);
    }
  }
  if (query.alpha > 0.0) {
    sources.owned.push_back(std::make_unique<SocialStreamSource>(
        ctx.proximity, ctx.social, query.user, query.alpha,
        ctx.index_horizon));
    sources.is_content.push_back(false);
  }
  return sources;
}

/// The eligibility predicate of `ctx`: combines the engine filter with
/// kAll tag matching. May be empty (accept everything). `scorer` must
/// outlive the returned function.
std::function<bool(ItemId)> BuildEligibilityFilter(const QueryContext& ctx,
                                                   const Scorer* scorer) {
  if (ctx.query->mode == MatchMode::kAll && ctx.filter != nullptr) {
    const auto engine_filter = ctx.filter;
    return [scorer, engine_filter](ItemId item) {
      return scorer->Eligible(item) && engine_filter(item);
    };
  }
  if (ctx.query->mode == MatchMode::kAll) {
    return [scorer](ItemId item) { return scorer->Eligible(item); };
  }
  return ctx.filter;
}

}  // namespace

Result<std::vector<ScoredItem>> BlendedTa::Search(const QueryContext& ctx,
                                                  SearchStats* stats) const {
  const SocialQuery& query = *ctx.query;
  AMICI_ASSIGN_OR_RETURN(BlendedSources blended, BuildBlendedSources(ctx));
  if (blended.owned.empty()) {
    // Degenerate: alpha == 0 with no tags is rejected by validation; be
    // defensive anyway.
    return std::vector<ScoredItem>{};
  }
  std::vector<SortedSource*> sources;
  sources.reserve(blended.owned.size());
  for (const auto& s : blended.owned) sources.push_back(s.get());

  PullPolicy policy;
  switch (bias_) {
    case PullBias::kContent:
      policy = MakeBiasedPull(blended.is_content, kBiasWeight);
      break;
    case PullBias::kSocial: {
      std::vector<bool> preferred(blended.is_content.size());
      for (size_t i = 0; i < blended.is_content.size(); ++i) {
        preferred[i] = !blended.is_content[i];
      }
      policy = MakeBiasedPull(std::move(preferred), kBiasWeight);
      break;
    }
    case PullBias::kAdaptive:
      policy = MakeBoundProportionalPull();
      break;
  }

  Scorer scorer(ctx.store, ctx.proximity, &query);
  const std::function<bool(ItemId)> filter =
      BuildEligibilityFilter(ctx, &scorer);
  auto score_of = [&scorer](ItemId item) { return scorer.Score(item); };

  SearchStats local;
  auto result = RunThresholdAlgorithm(
      std::span<SortedSource* const>(sources.data(), sources.size()),
      score_of, query.k, policy, filter, &local.aggregation, ctx.cancel,
      &local.truncated);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace amici
