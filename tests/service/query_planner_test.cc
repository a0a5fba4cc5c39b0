// The query planner (PlanAlgorithm) on the service's default path. An
// unhinted conjunctive (kAll) request runs the rarest-list scan: it must
// say so in its label and return exactly what the kExhaustive- and
// kHybrid-hinted requests return — plain, geo-filtered, owner-diversified,
// batched and over an un-indexed tail, at one and four shards. Every
// other unhinted request still runs hybrid TA.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/search_service.h"
#include "testing/reference_engine.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

DatasetConfig PlannerConfig() {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.items_per_user = 4.0;
  config.num_tags = 120;
  config.geo_fraction = 0.5;
  config.seed = 91;
  return config;
}

std::unique_ptr<SearchService> BuildService(size_t num_shards) {
  Dataset dataset = GenerateDataset(PlannerConfig()).value();
  SearchService::Options options;
  options.num_shards = num_shards;
  return SearchService::Build(std::move(dataset.graph),
                              std::move(dataset.store), std::move(options))
      .value();
}

/// Unhinted requests generated against the planner dataset.
std::vector<SearchRequest> MakeRequests(MatchMode mode, double alpha,
                                        size_t k, bool geo) {
  const Dataset view = GenerateDataset(PlannerConfig()).value();
  QueryWorkloadConfig config;
  config.num_queries = 6;
  config.mode = mode;
  config.alpha = alpha;
  config.k = k;
  config.max_tags_per_query = 3;
  config.with_geo_filter = geo;
  config.radius_km = 40.0;
  config.seed = 7 + static_cast<uint64_t>(mode) * 2 + (geo ? 1 : 0);
  const std::vector<SocialQuery> queries =
      GenerateQueries(view, config).value();
  std::vector<SearchRequest> requests;
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    requests.push_back(request);
  }
  return requests;
}

/// `planned` is the unhinted response to `request`: it must carry the
/// rarest-list scan's label and match both hinted strategies.
void ExpectPlannedScan(SearchService& service, const SearchRequest& request,
                       const Result<SearchResponse>& planned,
                       const std::string& label) {
  ASSERT_TRUE(planned.ok()) << label << ": " << planned.status().ToString();
  EXPECT_EQ(planned.value().algorithm, "exhaustive") << label;
  for (const AlgorithmId hint :
       {AlgorithmId::kExhaustive, AlgorithmId::kHybrid}) {
    SearchRequest hinted = request;
    hinted.algorithm = hint;
    const Result<SearchResponse> want = service.Search(hinted);
    ASSERT_TRUE(want.ok()) << label;
    EXPECT_EQ(want.value().algorithm, AlgorithmName(hint)) << label;
    ExpectSameResponse(want, planned,
                       label + " vs " + std::string(AlgorithmName(hint)));
  }
}

std::string CellLabel(size_t shards, double alpha, size_t k) {
  return "N=" + std::to_string(shards) + " alpha=" + std::to_string(alpha) +
         " k=" + std::to_string(k);
}

TEST(QueryPlannerTest, PlansRarestListScanOnlyForConjunctionsWithTags) {
  SocialQuery query;
  query.tags = {1, 2};
  EXPECT_EQ(PlanAlgorithm(query), AlgorithmId::kHybrid);
  query.mode = MatchMode::kAll;
  EXPECT_EQ(PlanAlgorithm(query), AlgorithmId::kExhaustive);
  query.has_geo_filter = true;
  EXPECT_EQ(PlanAlgorithm(query), AlgorithmId::kExhaustive);
  // A tag-less kAll query is the pure-social feed: no list to scan.
  query.tags.clear();
  query.alpha = 1.0;
  EXPECT_EQ(PlanAlgorithm(query), AlgorithmId::kHybrid);
}

TEST(QueryPlannerTest, EngineDefaultQueryRunsThePlan) {
  Dataset dataset = GenerateDataset(PlannerConfig()).value();
  auto engine = BuildReferenceEngine(std::move(dataset));
  for (const SearchRequest& request :
       MakeRequests(MatchMode::kAll, 0.5, 10, false)) {
    const auto planned = engine->Query(request.query);
    const auto scan = engine->Query(request.query, AlgorithmId::kExhaustive);
    ASSERT_TRUE(planned.ok() && scan.ok());
    EXPECT_EQ(planned.value().algorithm, "exhaustive");
    ASSERT_EQ(planned.value().items.size(), scan.value().items.size());
    for (size_t i = 0; i < scan.value().items.size(); ++i) {
      EXPECT_EQ(planned.value().items[i].item, scan.value().items[i].item);
      EXPECT_EQ(planned.value().items[i].score, scan.value().items[i].score);
    }
  }
}

TEST(QueryPlannerTest, UnhintedConjunctionsMatchHintedStrategies) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    auto service = BuildService(shards);
    for (const double alpha : {0.0, 0.5, 1.0}) {
      for (const size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
        const std::string cell = CellLabel(shards, alpha, k);
        std::vector<SearchRequest> requests =
            MakeRequests(MatchMode::kAll, alpha, k, false);
        const std::vector<SearchRequest> geo =
            MakeRequests(MatchMode::kAll, alpha, k, true);
        requests.insert(requests.end(), geo.begin(), geo.end());
        const size_t plain_count = requests.size();
        for (size_t i = 0; i < plain_count; ++i) {
          SearchRequest diverse = requests[i];
          diverse.max_per_owner = 1;
          requests.push_back(diverse);
        }
        size_t answered = 0;
        for (size_t i = 0; i < requests.size(); ++i) {
          const std::string label = cell + " request " + std::to_string(i);
          const auto planned = service->Search(requests[i]);
          ExpectPlannedScan(*service, requests[i], planned, label);
          if (planned.ok() && !planned.value().items.empty()) ++answered;
        }
        EXPECT_GT(answered, 0u) << cell;
        const auto batch = service->SearchBatch(requests);
        ASSERT_EQ(batch.size(), requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
          ExpectPlannedScan(*service, requests[i], batch[i],
                            cell + " batch slot " + std::to_string(i));
        }
      }
    }
  }
}

TEST(QueryPlannerTest, UnhintedConjunctionsMatchOverUnindexedTail) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    auto service = BuildService(shards);
    // A tail that carries every query's tags, so it adds matches the
    // indexes do not cover yet.
    const std::vector<SearchRequest> probe =
        MakeRequests(MatchMode::kAll, 0.5, 10, false);
    std::vector<Item> tail;
    for (size_t i = 0; i < probe.size() * 5; ++i) {
      Item item;
      item.owner = static_cast<UserId>((i * 37) % service->num_users());
      item.tags = probe[i % probe.size()].query.tags;
      item.quality = 0.1f + 0.15f * static_cast<float>(i % 6);
      tail.push_back(item);
    }
    const ItemId first_tail_id = static_cast<ItemId>(service->num_items());
    ASSERT_TRUE(service->AddItems(tail).ok());
    ASSERT_GT(service->unindexed_items(), 0u);
    size_t tail_hits = 0;
    for (const double alpha : {0.0, 0.5, 1.0}) {
      for (const size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
        const std::string cell = CellLabel(shards, alpha, k) + " tail";
        std::vector<SearchRequest> requests =
            MakeRequests(MatchMode::kAll, alpha, k, false);
        for (size_t i = 0; i < requests.size(); ++i) {
          const auto planned = service->Search(requests[i]);
          ExpectPlannedScan(*service, requests[i], planned,
                            cell + " request " + std::to_string(i));
          if (!planned.ok()) continue;
          for (const ScoredItem& item : planned.value().items) {
            if (item.item >= first_tail_id) ++tail_hits;
          }
        }
      }
    }
    EXPECT_GT(tail_hits, 0u) << "N=" << shards;
    EXPECT_GT(service->unindexed_items(), 0u);
  }
}

TEST(QueryPlannerTest, OtherUnhintedRequestsStayOnHybrid) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    auto service = BuildService(shards);
    for (const bool geo : {false, true}) {
      for (const SearchRequest& request :
           MakeRequests(MatchMode::kAny, 0.5, 10, geo)) {
        const auto response = service->Search(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(response.value().algorithm, "hybrid")
            << "N=" << shards << (geo ? " geo" : " plain");
      }
    }
    SearchRequest feed;
    feed.query.user = 5;
    feed.query.alpha = 1.0;
    feed.query.mode = MatchMode::kAll;
    const auto response = service->Search(feed);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().algorithm, "hybrid") << "N=" << shards;
  }
}

TEST(QueryPlannerTest, ConjunctionWithAnUnusedTagIsEmpty) {
  const Dataset view = GenerateDataset(PlannerConfig()).value();
  std::vector<size_t> document_frequency(view.config.num_tags, 0);
  for (ItemId item = 0; item < view.store.num_items(); ++item) {
    for (const TagId tag : view.store.tags(item)) ++document_frequency[tag];
  }
  TagId used = 0;
  TagId unused = 0;
  bool found_unused = false;
  for (TagId tag = 0; tag < document_frequency.size(); ++tag) {
    if (document_frequency[tag] > document_frequency[used]) used = tag;
    if (document_frequency[tag] == 0 && !found_unused) {
      unused = tag;
      found_unused = true;
    }
  }
  ASSERT_TRUE(found_unused) << "the planner dataset uses every tag";
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    auto service = BuildService(shards);
    SearchRequest request;
    request.query.user = 3;
    request.query.tags = {used, unused};
    NormalizeQuery(&request.query);
    request.query.mode = MatchMode::kAll;
    const auto response = service->Search(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().algorithm, "exhaustive");
    EXPECT_TRUE(response.value().items.empty()) << "N=" << shards;
    EXPECT_EQ(service->EstimateQueryCost(request.query), 0u);
  }
}

}  // namespace
}  // namespace amici
