// The acceptance property of block-max traversal: enabling it changes
// WHICH blocks the query path decodes, never WHAT any query returns.
// Twin engines (and twin services, across shard counts) built over the
// identical corpus with enable_block_max on vs off must return
// bit-identical top-k — items AND scores — for every algorithm, match
// mode, blend, and k, before and after ingest + compaction.
//
// Why bit-identical is achievable: a block is skipped only when its
// decoded FLOAT bound says every posting in it scores strictly below the
// current k-th floor (minus kBlockMaxPruneSlack), so no item that could
// enter the heap — not even one tying the k-th score, where the
// (score desc, item asc) tie-break decides membership — is ever pruned.
// The surviving candidate stream reaches the heap in the same order, so
// the heap passes through identical states.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "testing/reference_engine.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

constexpr AlgorithmId kAlgorithms[] = {
    AlgorithmId::kExhaustive,  AlgorithmId::kMergeScan,
    AlgorithmId::kContentFirst, AlgorithmId::kSocialFirst,
    AlgorithmId::kHybrid,
};

/// Few tags over many items => posting lists long enough (df well past
/// block_size) that block-max has real blocks to prune; otherwise every
/// list is a single block and the "on" engine degenerates to "off".
DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 400;
  config.items_per_user = 6.0;
  config.num_tags = 40;
  config.geo_fraction = 0.3;
  config.seed = seed;
  return config;
}

SocialSearchEngine::Options EngineOptions(bool enable_block_max) {
  SocialSearchEngine::Options options;
  // Small blocks: ~8 postings each, so even mid-popularity tags span
  // several blocks and per-block bounds actually differ.
  options.index_options.posting_options.block_size = 8;
  options.index_options.posting_options.enable_block_max = enable_block_max;
  // Merge-style compaction exercises MergeFrom's block-max rebuild in the
  // post-compaction phase (rebuild compaction is covered by unit tests).
  options.compaction_mode = CompactionMode::kAlwaysMerge;
  return options;
}

std::unique_ptr<SocialSearchEngine> BuildEngine(const DatasetConfig& config,
                                                bool enable_block_max) {
  // The generator is deterministic: both twins consume identical corpora.
  Dataset dataset = GenerateDataset(config).value();
  auto engine =
      SocialSearchEngine::Build(std::move(dataset.graph),
                                std::move(dataset.store),
                                EngineOptions(enable_block_max));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// The query mix the property is asserted over: kAny and kAll tag
/// queries, blends from pure-content (alpha 0, where pruning bites
/// hardest) to the tag-less pure-social feed (alpha 1), and small k
/// (high floors => aggressive skipping).
std::vector<SocialQuery> BuildQueries(const DatasetConfig& config) {
  Dataset workload_view = GenerateDataset(config).value();
  std::vector<SocialQuery> queries;

  QueryWorkloadConfig any;
  any.num_queries = 10;
  any.seed = config.seed * 17 + 1;
  const std::vector<SocialQuery> any_queries =
      GenerateQueries(workload_view, any).value();
  queries.insert(queries.end(), any_queries.begin(), any_queries.end());

  QueryWorkloadConfig all;
  all.num_queries = 10;
  all.mode = MatchMode::kAll;
  all.max_tags_per_query = 2;
  all.seed = config.seed * 17 + 2;
  const std::vector<SocialQuery> all_queries =
      GenerateQueries(workload_view, all).value();
  queries.insert(queries.end(), all_queries.begin(), all_queries.end());

  // Blend / k sweep over copies of the generated mix.
  Rng rng(config.seed * 17 + 3);
  const size_t base = queries.size();
  for (size_t i = 0; i < base; i += 3) {
    SocialQuery query = queries[i];
    query.alpha = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble();
    query.k = 1 + rng.UniformIndex(12);
    queries.push_back(query);
  }

  // Tag-less pure-social feeds (no posting traversal at all — block-max
  // must be a strict no-op here).
  for (const UserId user : {UserId{2}, UserId{77}}) {
    SocialQuery feed;
    feed.user = user;
    feed.alpha = 1.0;
    feed.k = 8;
    queries.push_back(feed);
  }
  return queries;
}

template <typename ResultT>
void ExpectSameItems(const ResultT& want, const ResultT& got,
                     const std::string& label) {
  ASSERT_EQ(want.ok(), got.ok())
      << label << ": " << want.status().ToString() << " vs "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << label;
    return;
  }
  const auto& expected = want.value().items;
  const auto& actual = got.value().items;
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bit-identical, not merely close — see the file header.
    EXPECT_EQ(expected[i].item, actual[i].item) << label << " rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " rank " << i;
  }
}

TEST(BlockMaxInvarianceTest, EngineTwinsBitIdenticalAcrossAlgorithms) {
  for (const uint64_t seed : {17u, 31u}) {
    SCOPED_TRACE("dataset seed " + std::to_string(seed));
    const DatasetConfig config = TestConfig(seed);
    auto off = BuildEngine(config, /*enable_block_max=*/false);
    auto on = BuildEngine(config, /*enable_block_max=*/true);
    const std::vector<SocialQuery> queries = BuildQueries(config);

    uint64_t skipped_on = 0;
    uint64_t decoded_on = 0;
    uint64_t decoded_off = 0;
    for (const AlgorithmId algorithm : kAlgorithms) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto want = off->Query(queries[i], algorithm);
        const auto got = on->Query(queries[i], algorithm);
        ExpectSameItems(want, got,
                        "algorithm " + std::to_string(int(algorithm)) +
                            " query " + std::to_string(i));
        if (got.ok()) {
          skipped_on += got.value().stats.aggregation.blocks_skipped;
          decoded_on += got.value().stats.aggregation.blocks_decoded;
        }
        if (want.ok()) {
          decoded_off += want.value().stats.aggregation.blocks_decoded;
        }
      }
    }
    // The twin property must not hold vacuously: the block-max engine has
    // to have actually pruned, and pruning has to have saved decodes.
    EXPECT_GT(skipped_on, 0u);
    EXPECT_LT(decoded_on, decoded_off);
  }
}

std::unique_ptr<SearchService> BuildService(const DatasetConfig& config,
                                            size_t num_shards,
                                            bool enable_block_max) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  options.engine = EngineOptions(enable_block_max);
  auto service = ShardedSearchService::Build(
      std::move(dataset.graph), std::move(dataset.store),
      std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

TEST(BlockMaxInvarianceTest, ServiceTwinsMatchAcrossShardsAndMutations) {
  const uint64_t seed = 23;
  const DatasetConfig config = TestConfig(seed);
  const std::vector<SocialQuery> queries = BuildQueries(config);
  std::vector<SearchRequest> requests;
  Rng hint_rng(seed * 11 + 4);
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    if (hint_rng.Bernoulli(0.5)) {
      request.algorithm = hint_rng.Bernoulli(0.5) ? AlgorithmId::kMergeScan
                                                  : AlgorithmId::kExhaustive;
    }
    requests.push_back(request);
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto off = BuildService(config, shards, /*enable_block_max=*/false);
    auto on = BuildService(config, shards, /*enable_block_max=*/true);
    // The twins also agree with one bare engine over the whole corpus.
    auto reference = BuildEngine(config, /*enable_block_max=*/false);

    uint64_t skipped_on = 0;
    auto compare_all = [&](const std::string& phase) {
      for (size_t i = 0; i < requests.size(); ++i) {
        const auto want = off->Search(requests[i]);
        const auto got = on->Search(requests[i]);
        ExpectSameItems(want, got, phase + " request " + std::to_string(i));
        ExpectSameResponse(ReferenceSearch(*reference, requests[i]), want,
                           phase + " reference request " + std::to_string(i));
        if (got.ok()) {
          skipped_on += got.value().stats.aggregation.blocks_skipped;
        }
      }
    };

    compare_all("fresh");

    // Mutations, applied identically to both twins: the tail is scanned
    // un-indexed (block-max must stay exact alongside the tail merge),
    // then compaction folds it through MergeFrom (kAlwaysMerge above).
    Rng rng(seed * 11 + 5);
    const size_t num_users = off->num_users();
    std::vector<Item> batch;
    for (int i = 0; i < 30; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(40))};
      if (rng.Bernoulli(0.4)) {
        item.tags.push_back(static_cast<TagId>(rng.UniformIndex(40)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      batch.push_back(item);
    }
    const auto off_ids = off->AddItems(batch);
    const auto on_ids = on->AddItems(batch);
    ASSERT_TRUE(off_ids.ok()) << off_ids.status().ToString();
    ASSERT_TRUE(on_ids.ok()) << on_ids.status().ToString();
    EXPECT_EQ(off_ids.value(), on_ids.value());
    ASSERT_TRUE(reference->AddItems(batch).ok());

    compare_all("post-ingest");

    ASSERT_TRUE(off->Compact().ok());
    ASSERT_TRUE(on->Compact().ok());
    ASSERT_TRUE(reference->Compact().ok());
    EXPECT_EQ(on->unindexed_items(), 0u);

    compare_all("post-compact");

    // The per-shard stats must have flowed through MergeSearchStats into
    // the response — and must show real pruning at every shard count.
    EXPECT_GT(skipped_on, 0u);
  }
}

}  // namespace
}  // namespace amici
