// Randomized lifecycle stress through the SearchService surface:
// interleave item ingest (single + batched), friendship churn,
// compactions, and queries, checking after every mutation batch that the
// early-terminating strategies still agree with the exhaustive oracle.
// This is the closest thing to a model-checking harness the system has.

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "service/local_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

TEST(StressTest, MutationsNeverBreakExactness) {
  DatasetConfig config = SmallDataset();
  config.num_users = 250;
  config.items_per_user = 3.0;
  config.num_tags = 120;
  config.geo_fraction = 0.3;
  Dataset dataset = GenerateDataset(config).value();
  Dataset workload_view = GenerateDataset(config).value();

  auto service = LocalSearchService::Build(std::move(dataset.graph),
                                           std::move(dataset.store));
  ASSERT_TRUE(service.ok());

  QueryWorkloadConfig workload;
  workload.num_queries = 8;
  workload.seed = 404;
  const auto queries = GenerateQueries(workload_view, workload).value();

  Rng rng(2024);
  const size_t num_users = service.value()->num_users();
  for (int round = 0; round < 12; ++round) {
    // --- Mutation batch: items (every other round through the batched
    // AddItems path), friendships, sometimes a compaction.
    const size_t new_items = rng.UniformIndex(10);
    std::vector<Item> batch;
    for (size_t i = 0; i < new_items; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(120))};
      if (rng.Bernoulli(0.5)) {
        item.tags.push_back(static_cast<TagId>(rng.UniformIndex(120)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      if (round % 2 == 0) {
        ASSERT_TRUE(service.value()->AddItem(item).ok());
      } else {
        batch.push_back(item);
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(service.value()->AddItems(batch).ok());
    }
    const size_t edge_flips = rng.UniformIndex(4);
    for (size_t i = 0; i < edge_flips; ++i) {
      const UserId u = static_cast<UserId>(rng.UniformIndex(num_users));
      const UserId v = static_cast<UserId>(rng.UniformIndex(num_users));
      if (u == v) continue;
      // Flip: add if absent (Ok), remove if present (AlreadyExists).
      const Status added = service.value()->AddFriendship(u, v);
      if (added.code() == StatusCode::kAlreadyExists) {
        ASSERT_TRUE(service.value()->RemoveFriendship(u, v).ok());
      } else {
        ASSERT_TRUE(added.ok()) << added.ToString();
      }
    }
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(service.value()->Compact().ok());
    }

    // --- Invariant: every strategy agrees with the oracle.
    for (const SocialQuery& base_query : queries) {
      SearchRequest request;
      request.query = base_query;
      request.query.alpha = rng.UniformDouble();
      request.algorithm = AlgorithmId::kExhaustive;
      const auto expected = service.value()->Search(request);
      ASSERT_TRUE(expected.ok());
      for (const AlgorithmId id :
           {AlgorithmId::kMergeScan, AlgorithmId::kHybrid}) {
        request.algorithm = id;
        const auto actual = service.value()->Search(request);
        ASSERT_TRUE(actual.ok()) << AlgorithmName(id);
        ASSERT_EQ(actual.value().items.size(),
                  expected.value().items.size())
            << AlgorithmName(id) << " round " << round;
        for (size_t i = 0; i < actual.value().items.size(); ++i) {
          EXPECT_NEAR(actual.value().items[i].score,
                      expected.value().items[i].score, 1e-5)
              << AlgorithmName(id) << " round " << round << " rank " << i;
        }
      }
    }
  }
}

TEST(StressTest, SearchBatchMatchesSerialExecution) {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  Dataset dataset = GenerateDataset(config).value();
  Dataset workload_view = GenerateDataset(config).value();
  LocalSearchService::Options options;
  options.fanout_threads = 8;
  auto service = LocalSearchService::Build(std::move(dataset.graph),
                                           std::move(dataset.store),
                                           std::move(options));
  ASSERT_TRUE(service.ok());

  QueryWorkloadConfig workload;
  workload.num_queries = 50;
  workload.seed = 505;
  const auto queries = GenerateQueries(workload_view, workload).value();

  std::vector<SearchRequest> requests;
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    requests.push_back(request);
  }
  // Serial reference, then the pooled batch.
  std::vector<Result<SearchResponse>> serial;
  for (const SearchRequest& request : requests) {
    serial.push_back(service.value()->Search(request));
  }
  const auto parallel = service.value()->SearchBatch(requests);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok()) << "request " << i;
    ASSERT_EQ(serial[i].value().items.size(),
              parallel[i].value().items.size());
    for (size_t r = 0; r < serial[i].value().items.size(); ++r) {
      EXPECT_EQ(serial[i].value().items[r].item,
                parallel[i].value().items[r].item);
      EXPECT_EQ(serial[i].value().items[r].score,
                parallel[i].value().items[r].score);
    }
  }
}

}  // namespace
}  // namespace amici
