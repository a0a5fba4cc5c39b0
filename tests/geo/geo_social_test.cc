#include "geo/geo_social.h"

#include "core/exhaustive_scan.h"
#include "geo/geo_point.h"
#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "proximity/hop_decay.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

class GeoSocialTest : public ::testing::Test {
 protected:
  GeoSocialTest() {
    DatasetConfig config = SmallDataset();
    config.num_users = 300;
    config.num_tags = 100;
    config.geo_fraction = 0.8;
    dataset_ = GenerateDataset(config).value();
    indexes_ = BuildIndexes(dataset_.store, dataset_.graph.num_users())
                   .value();
    grid_ = GridIndex::Build(dataset_.store, 0.05);
  }

  QueryContext MakeGeoContext(const SocialQuery& query,
                              const ProximityVector& proximity) {
    QueryContext ctx;
    ctx.graph = &dataset_.graph;
    ctx.store = &dataset_.store;
    ctx.inverted = &indexes_.inverted;
    ctx.social = &indexes_.social;
    ctx.grid = &grid_;
    ctx.proximity = &proximity;
    ctx.query = &query;
    ctx.index_horizon = static_cast<ItemId>(dataset_.store.num_items());
    const GeoPoint center{query.latitude, query.longitude};
    const ItemStore* store = &dataset_.store;
    const double radius = query.radius_km;
    ctx.filter = [store, center, radius](ItemId item) {
      if (!store->has_geo(item)) return false;
      const GeoPoint p{store->latitude(item), store->longitude(item)};
      return DistanceKm(center, p) <= radius;
    };
    return ctx;
  }

  SocialQuery GeoQuery(double radius_km) {
    SocialQuery query;
    query.user = 5;
    query.tags = {0, 1};
    query.k = 10;
    query.alpha = 0.5;
    query.has_geo_filter = true;
    // Anchor at the first geo item.
    for (ItemId i = 0; i < dataset_.store.num_items(); ++i) {
      if (dataset_.store.has_geo(i)) {
        query.latitude = dataset_.store.latitude(i);
        query.longitude = dataset_.store.longitude(i);
        break;
      }
    }
    query.radius_km = static_cast<float>(radius_km);
    return query;
  }

  Dataset dataset_;
  BuiltIndexes indexes_;
  GridIndex grid_;
};

TEST_F(GeoSocialTest, MatchesFilteredExhaustiveAcrossRadii) {
  const HopDecayProximity model(0.5, 2);
  const ExhaustiveScan oracle;
  for (const double radius : {1.0, 5.0, 25.0, 200.0}) {
    const SocialQuery query = GeoQuery(radius);
    const ProximityVector proximity =
        model.Compute(dataset_.graph, query.user);
    const QueryContext ctx = MakeGeoContext(query, proximity);

    SearchStats stats;
    const auto expected = oracle.Search(ctx, &stats);
    ASSERT_TRUE(expected.ok());

    const GeoGridScan geo;
    const auto actual = geo.Search(ctx, &stats);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_EQ(actual.value().size(), expected.value().size())
        << "radius " << radius;
    for (size_t i = 0; i < actual.value().size(); ++i) {
      EXPECT_NEAR(actual.value()[i].score, expected.value()[i].score, 1e-5)
          << "radius " << radius << " rank " << i;
    }
  }
}

TEST_F(GeoSocialTest, SmallRadiusExaminesFewerItems) {
  const HopDecayProximity model(0.5, 2);
  const SocialQuery small_query = GeoQuery(1.0);
  const SocialQuery large_query = GeoQuery(100.0);
  const ProximityVector proximity =
      model.Compute(dataset_.graph, small_query.user);

  const GeoGridScan geo;
  SearchStats small_stats;
  SearchStats large_stats;
  ASSERT_TRUE(
      geo.Search(MakeGeoContext(small_query, proximity), &small_stats).ok());
  ASSERT_TRUE(
      geo.Search(MakeGeoContext(large_query, proximity), &large_stats).ok());
  EXPECT_LT(small_stats.items_considered, large_stats.items_considered);
}

TEST_F(GeoSocialTest, RequiresGeoFilter) {
  const HopDecayProximity model(0.5, 2);
  SocialQuery query;
  query.user = 1;
  query.tags = {0};
  query.k = 5;
  const ProximityVector proximity =
      model.Compute(dataset_.graph, query.user);
  QueryContext ctx;
  ctx.graph = &dataset_.graph;
  ctx.store = &dataset_.store;
  ctx.inverted = &indexes_.inverted;
  ctx.social = &indexes_.social;
  ctx.grid = &grid_;
  ctx.proximity = &proximity;
  ctx.query = &query;
  ctx.index_horizon = static_cast<ItemId>(dataset_.store.num_items());

  const GeoGridScan geo;
  SearchStats stats;
  const auto result = geo.Search(ctx, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace amici
