// Concurrency through the ShardedSearchService: reader threads issuing
// Search / SearchBatch while a writer ingests (AddItem + AddItems batches)
// and compacts. Responses observed mid-flight must be internally
// consistent (ordered, deduplicated, ids within the visible corpus); the
// final state must match a single SocialSearchEngine fed the identical
// mutation sequence. Run under -fsanitize=thread to check the id-map publication
// protocol (mapping rows must be visible before a shard snapshot exposes
// the item).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "testing/reference_engine.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

TEST(ShardedConcurrencyTest, QueriesStayConsistentDuringIngestAndCompact) {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.items_per_user = 3.0;
  config.num_tags = 100;
  config.seed = 909;
  Dataset dataset = GenerateDataset(config).value();
  Dataset workload_view = GenerateDataset(config).value();

  ShardedSearchService::Options options;
  options.num_shards = 4;
  auto built = ShardedSearchService::Build(std::move(dataset.graph),
                                           std::move(dataset.store),
                                           std::move(options));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto service = std::move(built).value();

  QueryWorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 31;
  const auto queries = GenerateQueries(workload_view, workload).value();

  // The full mutation script, fixed up front so a reference engine can
  // replay it afterwards.
  Rng rng(515);
  std::vector<Item> script;
  for (int i = 0; i < 120; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(300));
    item.tags = {static_cast<TagId>(rng.UniformIndex(100))};
    item.quality = static_cast<float>(rng.UniformDouble());
    script.push_back(item);
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng reader_rng(1000 + t);
      while (!done.load(std::memory_order_acquire)) {
        const SocialQuery& query =
            queries[reader_rng.UniformIndex(queries.size())];
        SearchRequest request;
        request.query = query;
        if (reader_rng.Bernoulli(0.3)) request.max_per_owner = 2;
        const auto response = service->Search(request);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Internal consistency: ordered, unique, within the corpus the
        // service has published so far (num_items only grows).
        const size_t bound = service->num_items();
        const auto& items = response.value().items;
        for (size_t i = 0; i < items.size(); ++i) {
          if (items[i].item >= bound) failures.fetch_add(1);
          if (i > 0 && items[i - 1].score < items[i].score) {
            failures.fetch_add(1);
          }
          for (size_t j = 0; j < i; ++j) {
            if (items[j].item == items[i].item) failures.fetch_add(1);
          }
        }
      }
    });
  }

  // Writer: mixed single and batched ingest, periodic compaction.
  size_t next = 0;
  while (next < script.size()) {
    if (next % 30 == 0 && next > 0) {
      ASSERT_TRUE(service->Compact().ok());
    }
    if (next % 3 == 0 && next + 5 <= script.size()) {
      const std::span<const Item> batch(script.data() + next, 5);
      ASSERT_TRUE(service->AddItems(batch).ok());
      next += 5;
    } else {
      ASSERT_TRUE(service->AddItem(script[next]).ok());
      ++next;
    }
  }
  ASSERT_TRUE(service->Compact().ok());
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-hoc exactness: a single engine fed the same script agrees.
  auto reference = BuildReferenceEngine(GenerateDataset(config).value());
  ASSERT_TRUE(reference->AddItems(script).ok());
  ASSERT_EQ(reference->store().num_items(), service->num_items());
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    const auto expected = ReferenceSearch(*reference, request);
    const auto actual = service->Search(request);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(expected.value().items.size(), actual.value().items.size());
    for (size_t i = 0; i < expected.value().items.size(); ++i) {
      EXPECT_EQ(expected.value().items[i].item, actual.value().items[i].item);
      EXPECT_EQ(expected.value().items[i].score,
                actual.value().items[i].score);
    }
  }
}

}  // namespace
}  // namespace amici
