// The tag-less pure-social feed (alpha == 1.0, no tags): every
// early-terminating strategy must agree with the exhaustive oracle, in
// both match modes, with and without a geo filter, through the diverse
// path, and across the un-indexed tail — the same exactness bar the
// tagged queries are held to in tests/integration/exactness_test.cc.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

class TaglessFeedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = SmallDataset();
    config.num_users = 300;
    config.items_per_user = 4.0;
    config.num_tags = 150;
    config.geo_fraction = 0.4;
    config.seed = 606;
    Dataset dataset = GenerateDataset(config).value();
    auto engine = SocialSearchEngine::Build(std::move(dataset.graph),
                                            std::move(dataset.store), {});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  static SocialQuery Feed(UserId user, MatchMode mode = MatchMode::kAny) {
    SocialQuery query;
    query.user = user;
    query.k = 10;
    query.alpha = 1.0;
    query.mode = mode;
    return query;
  }

  void ExpectAllAlgorithmsAgree(const SocialQuery& query,
                                bool include_geo_grid = false) {
    const auto expected = engine_->Query(query, AlgorithmId::kExhaustive);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    std::vector<AlgorithmId> candidates{
        AlgorithmId::kMergeScan, AlgorithmId::kContentFirst,
        AlgorithmId::kSocialFirst, AlgorithmId::kHybrid};
    if (include_geo_grid) candidates.push_back(AlgorithmId::kGeoGrid);
    for (const AlgorithmId id : candidates) {
      const auto actual = engine_->Query(query, id);
      ASSERT_TRUE(actual.ok())
          << AlgorithmName(id) << ": " << actual.status().ToString();
      ASSERT_EQ(actual.value().items.size(), expected.value().items.size())
          << AlgorithmName(id);
      // Pure-social feeds are tie-heavy (every item of one owner scores
      // the same), and ties may order arbitrarily per the algorithm
      // contract — compare the exact score profile, like
      // tests/integration/exactness_test.cc does.
      for (size_t i = 0; i < actual.value().items.size(); ++i) {
        EXPECT_NEAR(actual.value().items[i].score,
                    expected.value().items[i].score, 1e-6)
            << AlgorithmName(id) << " rank " << i;
      }
    }
  }

  std::unique_ptr<SocialSearchEngine> engine_;
};

TEST_F(TaglessFeedTest, AllAlgorithmsAgreeOnPureSocialFeeds) {
  for (const UserId user : {UserId{0}, UserId{7}, UserId{123}, UserId{250}}) {
    ExpectAllAlgorithmsAgree(Feed(user));
    ExpectAllAlgorithmsAgree(Feed(user, MatchMode::kAll));
  }
}

TEST_F(TaglessFeedTest, FeedScoresArePureProximity) {
  const auto result = engine_->Query(Feed(7));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().items.empty());
  for (const ScoredItem& entry : result.value().items) {
    EXPECT_GT(entry.score, 0.0f);
    EXPECT_LE(entry.score, 1.0f);  // proximity is normalized
  }
  // The user's own items score exactly 1.0 and therefore lead the feed.
  const UserId owner = engine_->store().owner(result.value().items[0].item);
  if (owner == 7) {
    EXPECT_EQ(result.value().items[0].score, 1.0f);
  }
}

TEST_F(TaglessFeedTest, GeoFilteredFeedAgrees) {
  SocialQuery query = Feed(42);
  // Anchor the circle on some geo item so it is not empty.
  for (ItemId i = 0; i < static_cast<ItemId>(engine_->store().num_items());
       ++i) {
    if (engine_->store().has_geo(i)) {
      query.has_geo_filter = true;
      query.latitude = engine_->store().latitude(i);
      query.longitude = engine_->store().longitude(i);
      query.radius_km = 50.0f;
      break;
    }
  }
  ASSERT_TRUE(query.has_geo_filter);
  ExpectAllAlgorithmsAgree(query, /*include_geo_grid=*/true);
}

TEST_F(TaglessFeedTest, DiverseFeedCapsOwners) {
  const auto result =
      engine_->QueryDiverse(Feed(7), /*max_per_owner=*/1, AlgorithmId::kHybrid);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<UserId> owners;
  for (const ScoredItem& entry : result.value().items) {
    owners.push_back(engine_->store().owner(entry.item));
  }
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::adjacent_find(owners.begin(), owners.end()), owners.end());
}

TEST_F(TaglessFeedTest, FeedSeesUnindexedTail) {
  const auto before = engine_->Query(Feed(7));
  ASSERT_TRUE(before.ok());
  // A direct friend posts: with proximity >> 0 the fresh item must enter
  // the feed without any compaction.
  const auto friends = engine_->graph().Friends(7);
  ASSERT_FALSE(friends.empty());
  Item post;
  post.owner = friends[0];
  post.tags = {0};
  post.quality = 0.5f;
  const auto id = engine_->AddItem(post);
  ASSERT_TRUE(id.ok());
  ExpectAllAlgorithmsAgree(Feed(7));
  // With k covering the whole corpus the fresh item MUST appear (its
  // score is the friend's positive proximity).
  SocialQuery full = Feed(7);
  full.k = engine_->store().num_items();
  const auto after = engine_->Query(full);
  ASSERT_TRUE(after.ok());
  bool found = false;
  for (const ScoredItem& entry : after.value().items) {
    found |= entry.item == id.value();
  }
  EXPECT_TRUE(found) << "fresh friend post missing from the tail-merged feed";
}

}  // namespace
}  // namespace amici
