#include <memory>
#include <string>
#include <vector>

#include "core/exhaustive_scan.h"
#include "core/merge_scan.h"
#include "core/scorer.h"
#include "core/ta_runner.h"
#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "proximity/ppr_forward_push.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

/// One strategy under test and the label its failures print.
struct Candidate {
  std::string label;
  const SearchAlgorithm* algorithm;
};

/// Shared randomized corpus + the machinery to run any algorithm on it.
class AlgorithmsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config = SmallDataset();
    config.num_users = 600;
    config.items_per_user = 4.0;
    config.num_tags = 300;
    config.geo_fraction = 0.0;
    dataset_ = new Dataset(GenerateDataset(config).value());
    indexes_ = new BuiltIndexes(
        BuildIndexes(dataset_->store, dataset_->graph.num_users()).value());
  }

  static void TearDownTestSuite() {
    delete indexes_;
    delete dataset_;
    indexes_ = nullptr;
    dataset_ = nullptr;
  }

  QueryContext MakeContext(const SocialQuery& query,
                           const ProximityVector& proximity) {
    QueryContext ctx;
    ctx.graph = &dataset_->graph;
    ctx.store = &dataset_->store;
    ctx.inverted = &indexes_->inverted;
    ctx.social = &indexes_->social;
    ctx.proximity = &proximity;
    ctx.query = &query;
    ctx.index_horizon = static_cast<ItemId>(dataset_->store.num_items());
    return ctx;
  }

  /// Asserts `actual` is a valid exact top-k: same size and identical
  /// rank-by-rank scores as the oracle.
  void ExpectExactTopK(const std::vector<ScoredItem>& oracle,
                       const std::vector<ScoredItem>& actual,
                       const std::string& label) {
    ASSERT_EQ(actual.size(), oracle.size()) << label;
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(actual[i].score, oracle[i].score, 1e-5)
          << label << " rank " << i;
    }
  }

  static Dataset* dataset_;
  static BuiltIndexes* indexes_;
};

Dataset* AlgorithmsTest::dataset_ = nullptr;
BuiltIndexes* AlgorithmsTest::indexes_ = nullptr;

TEST_F(AlgorithmsTest, AllAlgorithmsAgreeAcrossQueryMix) {
  const PprForwardPush proximity_model(0.15, 1e-5);
  QueryWorkloadConfig workload;
  workload.num_queries = 40;
  workload.seed = 101;
  workload.max_tags_per_query = 3;

  const ExhaustiveScan oracle;
  const MergeScan merge;
  const BlendedTa content_first(PullBias::kContent);
  const BlendedTa social_first(PullBias::kSocial);
  const BlendedTa hybrid(PullBias::kAdaptive);
  const std::vector<Candidate> candidates{
      {"merge-scan", &merge},
      {"content-first", &content_first},
      {"social-first", &social_first},
      {"hybrid", &hybrid}};

  for (const double alpha : {0.0, 0.3, 0.7, 1.0}) {
    QueryWorkloadConfig config = workload;
    config.alpha = alpha;
    const auto queries = GenerateQueries(*dataset_, config);
    ASSERT_TRUE(queries.ok());
    for (const SocialQuery& query : queries.value()) {
      const ProximityVector proximity =
          proximity_model.Compute(dataset_->graph, query.user);
      const QueryContext ctx = MakeContext(query, proximity);
      SearchStats stats;
      const auto expected = oracle.Search(ctx, &stats);
      ASSERT_TRUE(expected.ok());
      for (const auto& [label, algorithm] : candidates) {
        const auto actual = algorithm->Search(ctx, &stats);
        ASSERT_TRUE(actual.ok())
            << label << ": " << actual.status().ToString();
        ExpectExactTopK(expected.value(), actual.value(),
                        label + " alpha=" + std::to_string(alpha));
      }
    }
  }
}

TEST_F(AlgorithmsTest, AllModeAgreesWithOracle) {
  const PprForwardPush proximity_model(0.15, 1e-5);
  QueryWorkloadConfig config;
  config.num_queries = 30;
  config.mode = MatchMode::kAll;
  config.max_tags_per_query = 2;
  config.alpha = 0.5;
  config.seed = 202;
  const auto queries = GenerateQueries(*dataset_, config);
  ASSERT_TRUE(queries.ok());

  const ExhaustiveScan oracle;
  const MergeScan merge;
  const BlendedTa hybrid(PullBias::kAdaptive);
  for (const SocialQuery& query : queries.value()) {
    const ProximityVector proximity =
        proximity_model.Compute(dataset_->graph, query.user);
    const QueryContext ctx = MakeContext(query, proximity);
    SearchStats stats;
    const auto expected = oracle.Search(ctx, &stats);
    ASSERT_TRUE(expected.ok());
    for (const auto& [label, algorithm] : std::vector<Candidate>{
             {"merge-scan", &merge}, {"hybrid", &hybrid}}) {
      const auto actual = algorithm->Search(ctx, &stats);
      ASSERT_TRUE(actual.ok()) << label;
      ExpectExactTopK(expected.value(), actual.value(), label + " kAll");
    }
  }
}

TEST_F(AlgorithmsTest, HybridDoesLessWorkThanExhaustiveCorpusScan) {
  const PprForwardPush proximity_model(0.15, 1e-5);
  SocialQuery query;
  query.user = 5;
  query.tags = {1};
  query.k = 10;
  query.alpha = 0.5;
  NormalizeQuery(&query);
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  const QueryContext ctx = MakeContext(query, proximity);

  SearchStats hybrid_stats;
  const BlendedTa hybrid(PullBias::kAdaptive);
  ASSERT_TRUE(hybrid.Search(ctx, &hybrid_stats).ok());
  EXPECT_LT(hybrid_stats.aggregation.candidates_scored,
            dataset_->store.num_items());
}

TEST_F(AlgorithmsTest, UnknownTagYieldsSocialOnlyResults) {
  const PprForwardPush proximity_model(0.15, 1e-5);
  SocialQuery query;
  query.user = 10;
  query.tags = {static_cast<TagId>(dataset_->tags.size() + 1000)};
  query.k = 5;
  query.alpha = 0.6;
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  const QueryContext ctx = MakeContext(query, proximity);

  const ExhaustiveScan oracle;
  const BlendedTa hybrid(PullBias::kAdaptive);
  SearchStats stats;
  const auto expected = oracle.Search(ctx, &stats);
  const auto actual = hybrid.Search(ctx, &stats);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ExpectExactTopK(expected.value(), actual.value(), "unknown-tag");
  // With a tag nobody uses, every result score is purely social.
  for (const auto& entry : actual.value()) {
    EXPECT_GT(entry.score, 0.0f);
  }
}

TEST_F(AlgorithmsTest, TaRequiresImpactOrderedLists) {
  InvertedIndex::Options options;
  options.build_impact_ordered = false;
  const auto lean =
      BuildIndexes(dataset_->store, dataset_->graph.num_users(), options);
  ASSERT_TRUE(lean.ok());

  const PprForwardPush proximity_model;
  SocialQuery query;
  query.user = 0;
  query.tags = {1};
  query.k = 3;
  query.alpha = 0.5;
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  QueryContext ctx = MakeContext(query, proximity);
  ctx.inverted = &lean.value().inverted;
  ctx.social = &lean.value().social;

  SearchStats stats;
  const BlendedTa hybrid(PullBias::kAdaptive);
  const auto result = hybrid.Search(ctx, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // alpha == 1 needs no content lists and must still work.
  SocialQuery social_only = query;
  social_only.alpha = 1.0;
  ctx.query = &social_only;
  EXPECT_TRUE(hybrid.Search(ctx, &stats).ok());
}

TEST_F(AlgorithmsTest, AllModeWithUnusedTagYieldsEmpty) {
  // AND semantics with a tag nobody carries: the eligible set is empty,
  // so every algorithm must return nothing.
  const PprForwardPush proximity_model;
  SocialQuery query;
  query.user = 2;
  query.tags = {0, static_cast<TagId>(dataset_->tags.size() + 99)};
  query.k = 5;
  query.alpha = 0.5;
  query.mode = MatchMode::kAll;
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  const QueryContext ctx = MakeContext(query, proximity);

  SearchStats stats;
  const ExhaustiveScan oracle;
  const MergeScan merge;
  const BlendedTa hybrid(PullBias::kAdaptive);
  for (const auto& [label, algorithm] : std::vector<Candidate>{
           {"exhaustive", &oracle}, {"merge-scan", &merge},
           {"hybrid", &hybrid}}) {
    const auto result = algorithm->Search(ctx, &stats);
    ASSERT_TRUE(result.ok()) << label;
    EXPECT_TRUE(result.value().empty()) << label;
  }
}

TEST_F(AlgorithmsTest, SingleUserCorpusAlphaOne) {
  // alpha = 1 ranks purely socially; only reachable owners (plus self)
  // can appear, and scores must be proximity values.
  const PprForwardPush proximity_model;
  SocialQuery query;
  query.user = 3;
  query.tags = {0};
  query.k = 20;
  query.alpha = 1.0;
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  const QueryContext ctx = MakeContext(query, proximity);

  SearchStats stats;
  const BlendedTa hybrid(PullBias::kAdaptive);
  const auto result = hybrid.Search(ctx, &stats);
  ASSERT_TRUE(result.ok());
  for (const ScoredItem& entry : result.value()) {
    const UserId owner = dataset_->store.owner(entry.item);
    const double expected =
        owner == query.user ? 1.0 : proximity.Proximity(owner);
    EXPECT_NEAR(entry.score, expected, 1e-6);
  }
}

TEST_F(AlgorithmsTest, StatsAreReported) {
  const PprForwardPush proximity_model;
  SocialQuery query;
  query.user = 1;
  query.tags = {0, 1};
  query.k = 5;
  query.alpha = 0.4;
  const ProximityVector proximity =
      proximity_model.Compute(dataset_->graph, query.user);
  const QueryContext ctx = MakeContext(query, proximity);

  SearchStats exhaustive_stats;
  const ExhaustiveScan oracle;
  ASSERT_TRUE(oracle.Search(ctx, &exhaustive_stats).ok());
  EXPECT_EQ(exhaustive_stats.items_considered, dataset_->store.num_items());

  SearchStats hybrid_stats;
  const BlendedTa hybrid(PullBias::kAdaptive);
  ASSERT_TRUE(hybrid.Search(ctx, &hybrid_stats).ok());
  EXPECT_GT(hybrid_stats.aggregation.sorted_accesses, 0u);
}

}  // namespace
}  // namespace amici
