#include "core/engine.h"

#include <memory>
#include <optional>

#include "gtest/gtest.h"
#include "proximity/hop_decay.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static std::unique_ptr<SocialSearchEngine> MakeEngine(
      SocialSearchEngine::Options options = {}) {
    DatasetConfig config = SmallDataset();
    config.num_users = 400;
    config.num_tags = 200;
    config.geo_fraction = 0.4;
    Dataset dataset = GenerateDataset(config).value();
    auto engine = SocialSearchEngine::Build(
        std::move(dataset.graph), std::move(dataset.store),
        std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  }

  static SocialQuery MakeQuery(UserId user = 3) {
    SocialQuery query;
    query.user = user;
    query.tags = {0, 1};
    query.k = 5;
    query.alpha = 0.5;
    return query;
  }
};

TEST_F(EngineTest, BuildPopulatesIndexes) {
  const auto engine = MakeEngine();
  EXPECT_GT(engine->store().num_items(), 0u);
  EXPECT_GT(engine->inverted_index().num_tags(), 0u);
  EXPECT_EQ(engine->social_index().num_entries(),
            engine->store().num_items());
  EXPECT_GT(engine->last_build_stats().inverted_bytes, 0u);
  EXPECT_EQ(engine->unindexed_items(), 0u);
}

TEST_F(EngineTest, DefaultProximityModelIsForwardPush) {
  const auto engine = MakeEngine();
  EXPECT_EQ(engine->proximity_model().name(), "ppr-push");
}

TEST_F(EngineTest, CustomProximityModelIsUsed) {
  SocialSearchEngine::Options options;
  options.proximity_model = std::make_shared<HopDecayProximity>(0.5, 2);
  const auto engine = MakeEngine(std::move(options));
  EXPECT_EQ(engine->proximity_model().name(), "hop-decay");
}

TEST_F(EngineTest, QueryReturnsScoredDescendingResults) {
  auto engine = MakeEngine();
  const auto result = engine->Query(MakeQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result.value().items.size(), 5u);
  EXPECT_EQ(result.value().algorithm, "hybrid");
  EXPECT_GE(result.value().elapsed_ms, 0.0);
  const auto& items = result.value().items;
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_GE(items[i - 1].score, items[i].score);
  }
}

TEST_F(EngineTest, AllAlgorithmsAgreeThroughTheFacade) {
  auto engine = MakeEngine();
  const SocialQuery query = MakeQuery(7);
  const auto expected =
      engine->Query(query, AlgorithmId::kExhaustive);
  ASSERT_TRUE(expected.ok());
  for (const AlgorithmId id :
       {AlgorithmId::kMergeScan, AlgorithmId::kContentFirst,
        AlgorithmId::kSocialFirst, AlgorithmId::kHybrid}) {
    const auto actual = engine->Query(query, id);
    ASSERT_TRUE(actual.ok()) << AlgorithmName(id);
    ASSERT_EQ(actual.value().items.size(), expected.value().items.size());
    for (size_t i = 0; i < actual.value().items.size(); ++i) {
      EXPECT_NEAR(actual.value().items[i].score,
                  expected.value().items[i].score, 1e-5)
          << AlgorithmName(id) << " rank " << i;
    }
  }
}

TEST_F(EngineTest, InvalidQueryIsRejected) {
  auto engine = MakeEngine();
  SocialQuery query = MakeQuery();
  query.k = 0;
  EXPECT_FALSE(engine->Query(query).ok());
  query = MakeQuery();
  query.user = static_cast<UserId>(engine->graph().num_users());
  EXPECT_FALSE(engine->Query(query).ok());
}

TEST_F(EngineTest, GeoQueryFiltersByRadius) {
  auto engine = MakeEngine();
  // Anchor at some geo item.
  ItemId anchor = kInvalidItemId;
  for (ItemId i = 0; i < engine->store().num_items(); ++i) {
    if (engine->store().has_geo(i)) {
      anchor = i;
      break;
    }
  }
  ASSERT_NE(anchor, kInvalidItemId);
  SocialQuery query = MakeQuery();
  query.has_geo_filter = true;
  query.latitude = engine->store().latitude(anchor);
  query.longitude = engine->store().longitude(anchor);
  query.radius_km = 15.0f;
  query.alpha = 0.3;

  const auto expected = engine->Query(query, AlgorithmId::kExhaustive);
  ASSERT_TRUE(expected.ok());
  for (const AlgorithmId id :
       {AlgorithmId::kHybrid, AlgorithmId::kGeoGrid}) {
    const auto actual = engine->Query(query, id);
    ASSERT_TRUE(actual.ok()) << AlgorithmName(id);
    ASSERT_EQ(actual.value().items.size(), expected.value().items.size())
        << AlgorithmName(id);
    for (size_t i = 0; i < actual.value().items.size(); ++i) {
      EXPECT_NEAR(actual.value().items[i].score,
                  expected.value().items[i].score, 1e-5)
          << AlgorithmName(id) << " rank " << i;
    }
  }
}

TEST_F(EngineTest, GeoGridWithoutGeoFilterFails) {
  auto engine = MakeEngine();
  const auto result = engine->Query(MakeQuery(), AlgorithmId::kGeoGrid);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, StatsAccumulateAcrossQueries) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Query(MakeQuery(1)).ok());
  ASSERT_TRUE(engine->Query(MakeQuery(2)).ok());
  ASSERT_TRUE(engine->Query(MakeQuery(3), AlgorithmId::kExhaustive).ok());
  EXPECT_EQ(engine->stats().total_queries(), 3u);
  EXPECT_EQ(engine->stats().QueriesFor("hybrid"), 2u);
  EXPECT_EQ(engine->stats().QueriesFor("exhaustive"), 1u);
  EXPECT_FALSE(engine->stats().ToString().empty());
}

TEST_F(EngineTest, ProximityCacheHitsOnRepeatedUser) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Query(MakeQuery(9)).ok());
  ASSERT_TRUE(engine->Query(MakeQuery(9)).ok());
  EXPECT_GE(engine->proximity().stats().cache_hits, 1u);
}

TEST_F(EngineTest, AddItemGoesToTailAndStaysQueryable) {
  auto engine = MakeEngine();
  SocialQuery query = MakeQuery(4);
  query.alpha = 0.0;  // content only, to make the new item dominate
  query.tags = {0};
  query.k = 3;

  Item item;
  item.owner = 4;
  item.tags = {0};
  item.quality = 1.0f;  // maximal quality -> top content score
  const auto added = engine->AddItem(item);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(engine->unindexed_items(), 1u);

  const auto result = engine->Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().items.empty());
  EXPECT_EQ(result.value().items[0].item, added.value());

  // Compaction folds it into the indexes; result must be unchanged.
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->unindexed_items(), 0u);
  const auto after = engine->Query(query);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after.value().items.empty());
  EXPECT_EQ(after.value().items[0].item, added.value());
}

TEST_F(EngineTest, AddItemRejectsForeignOwner) {
  auto engine = MakeEngine();
  Item item;
  item.owner = static_cast<UserId>(engine->graph().num_users() + 5);
  item.tags = {0};
  item.quality = 0.5f;
  EXPECT_FALSE(engine->AddItem(item).ok());
}

TEST_F(EngineTest, AddItemsBatchPublishesOnce) {
  auto engine = MakeEngine();
  const size_t before = engine->store().num_items();
  const auto snapshot_before = engine->snapshot();

  std::vector<Item> batch(25);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].owner = static_cast<UserId>(i % 50);
    batch[i].tags = {static_cast<TagId>(i % 7)};
    batch[i].quality = 0.4f;
  }
  const auto ids = engine->AddItems(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), batch.size());
  for (size_t i = 0; i < ids.value().size(); ++i) {
    EXPECT_EQ(ids.value()[i], static_cast<ItemId>(before + i))
        << "batch ids must be dense, in batch order";
  }
  EXPECT_EQ(engine->store().num_items(), before + batch.size());
  EXPECT_EQ(engine->unindexed_items(), batch.size());
  // ONE publish for the whole batch: heavy components are shared with the
  // pre-batch generation, only the store bound advanced.
  const auto snapshot_after = engine->snapshot();
  EXPECT_NE(snapshot_before.get(), snapshot_after.get());
  EXPECT_EQ(snapshot_before->indexes.get(), snapshot_after->indexes.get());
  EXPECT_EQ(snapshot_before->graph.get(), snapshot_after->graph.get());

  // Batch items are queryable immediately (tail scan), exactly.
  SocialQuery query = MakeQuery();
  query.tags = {0};
  query.k = before + batch.size();
  const auto exhaustive = engine->Query(query, AlgorithmId::kExhaustive);
  const auto hybrid = engine->Query(query, AlgorithmId::kHybrid);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_TRUE(hybrid.ok());
  ASSERT_EQ(exhaustive.value().items.size(), hybrid.value().items.size());
}

TEST_F(EngineTest, AddItemsBatchIsAllOrNothing) {
  auto engine = MakeEngine();
  const size_t before = engine->store().num_items();
  std::vector<Item> batch(4);
  for (auto& item : batch) {
    item.owner = 1;
    item.tags = {0};
    item.quality = 0.5f;
  }
  batch[3].owner = static_cast<UserId>(engine->graph().num_users() + 1);
  const auto rejected = engine->AddItems(batch);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->store().num_items(), before)
      << "a rejected batch must not leak a prefix into the store";

  batch[3].owner = 1;
  batch[3].quality = -0.5f;
  EXPECT_FALSE(engine->AddItems(batch).ok());
  EXPECT_EQ(engine->store().num_items(), before);

  const auto empty = engine->AddItems(std::span<const Item>());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(EngineTest, AlgorithmNamesAreStable) {
  EXPECT_EQ(AlgorithmName(AlgorithmId::kExhaustive), "exhaustive");
  EXPECT_EQ(AlgorithmName(AlgorithmId::kMergeScan), "merge-scan");
  EXPECT_EQ(AlgorithmName(AlgorithmId::kContentFirst), "content-first");
  EXPECT_EQ(AlgorithmName(AlgorithmId::kSocialFirst), "social-first");
  EXPECT_EQ(AlgorithmName(AlgorithmId::kHybrid), "hybrid");
  EXPECT_EQ(AlgorithmName(AlgorithmId::kGeoGrid), "geo-grid");
}

TEST_F(EngineTest, ParseAlgorithmInvertsAlgorithmName) {
  for (size_t i = 0; i < kNumAlgorithms; ++i) {
    const auto id = static_cast<AlgorithmId>(i);
    EXPECT_EQ(ParseAlgorithm(AlgorithmName(id)), id) << AlgorithmName(id);
  }
  EXPECT_EQ(ParseAlgorithm("nra"), std::nullopt);
  EXPECT_EQ(ParseAlgorithm(""), std::nullopt);
  EXPECT_EQ(ParseAlgorithm("Hybrid"), std::nullopt);
}

}  // namespace
}  // namespace amici
