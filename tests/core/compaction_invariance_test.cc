// The acceptance property of incremental (LSM-style) compaction: an
// engine whose Compact() MERGES the tail into shared posting lists is
// indistinguishable — bit-identical responses, not merely equivalent —
// from a twin engine that always REBUILDS its indexes from scratch,
// under randomized interleavings of AddItems batches, friendship edits
// and Compacts, on 1-, 2- and 4-shard services — and both twins agree with
// a single never-compacted SocialSearchEngine fed the same mutations.
//
// Why bit-identical is achievable: a merged posting list / owner bucket
// / grid cell holds exactly the postings a rebuild would produce (the
// (quality desc, item asc) and document orders are strict total orders,
// and tail ids strictly exceed indexed ids), and TopKHeap's (score, id)
// tie-break makes result selection independent of enumeration order.
//
// Also covered here: the O(tail + touched lists) contract itself — an
// incremental Compact on a small tail reports lists_touched bounded by
// the tail's distinct tags/owners and SHARES every untouched list
// pointer-identically with the previous snapshot.

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

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 250;
  config.items_per_user = 4.0;
  config.num_tags = 120;
  config.geo_fraction = 0.3;
  config.seed = seed;
  return config;
}

/// Builds one service over the (deterministically regenerated) dataset
/// with the given forced compaction mode.
std::unique_ptr<SearchService> BuildService(const DatasetConfig& config,
                                            size_t num_shards,
                                            CompactionMode mode) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  options.engine.compaction_mode = mode;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Cumulative compaction counters summed over a service's shard engines.
struct EngineCompactionCounts {
  uint64_t merge = 0;
  uint64_t rebuild = 0;
  uint64_t items_merged = 0;
};

EngineCompactionCounts SumCompactionCounts(SearchService* service) {
  EngineCompactionCounts counts;
  for (size_t s = 0; s < service->num_shards(); ++s) {
    const EngineStats& stats = service->shard_engine(s)->stats();
    counts.merge += stats.merge_compactions();
    counts.rebuild += stats.rebuild_compactions();
    counts.items_merged += stats.compaction_items_merged();
  }
  return counts;
}

/// The probe mix: plain blended queries, algorithm-hinted ones, a geo
/// filter, owner-diversified top-k and tag-less pure-social feeds.
std::vector<SearchRequest> BuildProbes(const DatasetConfig& config) {
  Dataset workload_view = GenerateDataset(config).value();
  std::vector<SearchRequest> probes;

  QueryWorkloadConfig plain;
  plain.num_queries = 8;
  plain.seed = config.seed * 31 + 1;
  const std::vector<SocialQuery> plain_queries =
      GenerateQueries(workload_view, plain).value();
  for (const SocialQuery& query : plain_queries) {
    SearchRequest request;
    request.query = query;
    probes.push_back(request);
  }

  QueryWorkloadConfig geo;
  geo.num_queries = 4;
  geo.with_geo_filter = true;
  geo.radius_km = 25.0;
  geo.seed = config.seed * 31 + 2;
  const std::vector<SocialQuery> geo_queries =
      GenerateQueries(workload_view, geo).value();
  for (const SocialQuery& query : geo_queries) {
    SearchRequest request;
    request.query = query;
    probes.push_back(request);
  }

  Rng rng(config.seed * 31 + 3);
  for (size_t i = 0; i < 8; ++i) {
    SearchRequest request = probes[i];
    request.query.alpha = 0.2 + 0.6 * rng.UniformDouble();
    request.query.k = 1 + rng.UniformIndex(15);
    request.algorithm = rng.Bernoulli(0.5) ? AlgorithmId::kMergeScan
                                           : AlgorithmId::kSocialFirst;
    probes.push_back(request);
    SearchRequest diverse = probes[i];
    diverse.max_per_owner = 1 + rng.UniformIndex(3);
    probes.push_back(diverse);
  }
  for (const UserId user : {UserId{5}, UserId{77}}) {
    SearchRequest feed;
    feed.query.user = user;
    feed.query.alpha = 1.0;
    feed.query.k = 10;
    probes.push_back(feed);
  }
  return probes;
}

/// Twin responses must agree EXACTLY: same backend, same corpus, same
/// code — the only difference is merged vs rebuilt index representation,
/// whose contents are bit-identical by construction. Both also match the
/// single-engine reference (up to float-rounded ties across backends).
void ExpectIdenticalResponses(SearchService* merge_twin,
                              SearchService* rebuild_twin,
                              SocialSearchEngine* reference,
                              std::span<const SearchRequest> probes,
                              const std::string& label) {
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto want = rebuild_twin->Search(probes[i]);
    const auto got = merge_twin->Search(probes[i]);
    ExpectSameResponse(ReferenceSearch(*reference, probes[i]), want,
                       label + " reference probe " + std::to_string(i));
    ASSERT_EQ(want.ok(), got.ok())
        << label << " probe " << i << ": " << want.status().ToString()
        << " vs " << got.status().ToString();
    if (!want.ok()) continue;
    ASSERT_EQ(want.value().items.size(), got.value().items.size())
        << label << " probe " << i;
    for (size_t r = 0; r < want.value().items.size(); ++r) {
      EXPECT_EQ(want.value().items[r].item, got.value().items[r].item)
          << label << " probe " << i << " rank " << r;
      EXPECT_EQ(want.value().items[r].score, got.value().items[r].score)
          << label << " probe " << i << " rank " << r;
    }
  }
  // Tag suggestions ride the same indexes; they must agree too.
  for (const UserId user : {UserId{5}, UserId{77}}) {
    const std::vector<TagId> seeds{1, 7};
    const auto want = rebuild_twin->SuggestTags(user, seeds);
    const auto got = merge_twin->SuggestTags(user, seeds);
    ASSERT_EQ(want.ok(), got.ok()) << label;
    if (!want.ok()) continue;
    ASSERT_EQ(want.value().size(), got.value().size()) << label;
    for (size_t i = 0; i < want.value().size(); ++i) {
      EXPECT_EQ(want.value()[i].tag, got.value()[i].tag) << label;
      EXPECT_EQ(want.value()[i].weight, got.value()[i].weight) << label;
      EXPECT_EQ(want.value()[i].support, got.value()[i].support) << label;
    }
  }
}

/// The randomized workload: interleaved ingest batches, friendship
/// flips and Compacts, applied IDENTICALLY to both twins; after every
/// Compact the twins' probe responses must be bit-identical.
void RunInvarianceWorkload(size_t num_shards, uint64_t seed) {
  const DatasetConfig config = TestConfig(seed);
  auto merge_twin =
      BuildService(config, num_shards, CompactionMode::kAlwaysMerge);
  auto rebuild_twin =
      BuildService(config, num_shards, CompactionMode::kAlwaysRebuild);
  auto reference = BuildReferenceEngine(GenerateDataset(config).value());
  const std::vector<SearchRequest> probes = BuildProbes(config);
  const std::string label = "sharded/" + std::to_string(num_shards) +
                            " seed " + std::to_string(seed);

  ExpectIdenticalResponses(merge_twin.get(), rebuild_twin.get(),
                           reference.get(), probes, label + " fresh");

  Rng rng(seed * 17 + 9);
  const size_t num_users = merge_twin->num_users();
  for (int round = 0; round < 6; ++round) {
    const std::string round_label =
        label + " round " + std::to_string(round);
    // Ingest a random batch. Tags may exceed the initial universe (the
    // merge path must grow the tag space exactly like a rebuild); some
    // items carry geo so grid cells merge too.
    std::vector<Item> batch;
    const size_t batch_size = 5 + rng.UniformIndex(35);
    for (size_t i = 0; i < batch_size; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(140))};
      if (rng.Bernoulli(0.4)) {
        item.tags.push_back(static_cast<TagId>(rng.UniformIndex(140)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      if (rng.Bernoulli(0.3)) {
        item.has_geo = true;
        item.latitude = static_cast<float>(rng.UniformDouble() - 0.5);
        item.longitude = static_cast<float>(rng.UniformDouble() - 0.5);
      }
      batch.push_back(item);
    }
    const auto merge_ids = merge_twin->AddItems(batch);
    const auto rebuild_ids = rebuild_twin->AddItems(batch);
    ASSERT_TRUE(merge_ids.ok()) << round_label;
    ASSERT_TRUE(rebuild_ids.ok()) << round_label;
    EXPECT_EQ(merge_ids.value(), rebuild_ids.value()) << round_label;
    ASSERT_TRUE(reference->AddItems(batch).ok()) << round_label;

    // A friendship flip (add or remove), identical on both twins.
    const UserId u = static_cast<UserId>(rng.UniformIndex(num_users));
    const UserId v = static_cast<UserId>(rng.UniformIndex(num_users));
    if (u != v) {
      if (rng.Bernoulli(0.5)) {
        const StatusCode code = reference->AddFriendship(u, v).code();
        EXPECT_EQ(merge_twin->AddFriendship(u, v).code(), code)
            << round_label;
        EXPECT_EQ(rebuild_twin->AddFriendship(u, v).code(), code)
            << round_label;
      } else {
        const StatusCode code = reference->RemoveFriendship(u, v).code();
        EXPECT_EQ(merge_twin->RemoveFriendship(u, v).code(), code)
            << round_label;
        EXPECT_EQ(rebuild_twin->RemoveFriendship(u, v).code(), code)
            << round_label;
      }
    }

    // Occasionally probe mid-tail (both twins carry the same tail).
    if (round % 2 == 1) {
      ExpectIdenticalResponses(merge_twin.get(), rebuild_twin.get(),
                               reference.get(), probes,
                               round_label + " pre-compact");
    }

    // Compact both — the merge twin folds incrementally, the rebuild
    // twin from scratch — and the twins must stay indistinguishable.
    ASSERT_TRUE(merge_twin->Compact().ok()) << round_label;
    ASSERT_TRUE(rebuild_twin->Compact().ok()) << round_label;
    EXPECT_EQ(merge_twin->unindexed_items(), 0u) << round_label;
    EXPECT_EQ(rebuild_twin->unindexed_items(), 0u) << round_label;
    ExpectIdenticalResponses(merge_twin.get(), rebuild_twin.get(),
                             reference.get(), probes,
                             round_label + " post-compact");
  }

  // The twins really took different paths: the merge twin's shard
  // engines count merge compactions, the rebuild twin's count none.
  const EngineCompactionCounts merged = SumCompactionCounts(merge_twin.get());
  const EngineCompactionCounts rebuilt =
      SumCompactionCounts(rebuild_twin.get());
  EXPECT_GT(merged.merge, 0u) << label;
  EXPECT_EQ(merged.rebuild, 0u) << label;
  EXPECT_GT(rebuilt.rebuild, 0u) << label;
  EXPECT_EQ(rebuilt.merge, 0u) << label;
  EXPECT_GT(merged.items_merged, 0u) << label;
  // StatsSummary surfaces the mode split.
  EXPECT_NE(merge_twin->StatsSummary().find("merge"), std::string::npos);
}

TEST(CompactionInvarianceTest, OneShardMergeTwinMatchesRebuildTwin) {
  RunInvarianceWorkload(1, 3u);
  RunInvarianceWorkload(1, 23u);
}

TEST(CompactionInvarianceTest, TwoShardMergeTwinMatchesRebuildTwin) {
  RunInvarianceWorkload(2, 7u);
}

TEST(CompactionInvarianceTest, FourShardMergeTwinMatchesRebuildTwin) {
  RunInvarianceWorkload(4, 13u);
}

// ---------------------------------------------------------------------
// The O(tail + touched lists) contract at the engine level: a small
// tail's incremental Compact rebuilds only tail-referenced lists, shares
// the rest pointer-identically, and reports it through the stats.
// ---------------------------------------------------------------------

TEST(CompactionInvarianceTest, IncrementalCompactTouchesOnlyTailLists) {
  DatasetConfig config = TestConfig(41u);
  Dataset dataset = GenerateDataset(config).value();
  auto built = SocialSearchEngine::Build(std::move(dataset.graph),
                                         std::move(dataset.store), {});
  ASSERT_TRUE(built.ok());
  SocialSearchEngine* engine = built.value().get();

  const auto before = engine->snapshot();
  ASSERT_EQ(before->unindexed_items(), 0u);

  // A 3-item tail referencing exactly 2 tags and 2 owners, no geo.
  auto tail_item = [](UserId owner, TagId tag, float quality) {
    Item item;
    item.owner = owner;
    item.tags = {tag};
    item.quality = quality;
    return item;
  };
  ASSERT_TRUE(engine->AddItem(tail_item(1, 3, 0.9f)).ok());
  ASSERT_TRUE(engine->AddItem(tail_item(1, 3, 0.1f)).ok());
  ASSERT_TRUE(engine->AddItem(tail_item(2, 8, 0.5f)).ok());

  CompactionOutcome outcome;
  ASSERT_TRUE(engine->Compact(CompactionMode::kAlwaysMerge, &outcome).ok());
  EXPECT_TRUE(outcome.merged);
  EXPECT_EQ(outcome.items_merged, 3u);
  // Exactly tags {3, 8} and owners {1, 2}; no geo cells.
  EXPECT_EQ(outcome.lists_touched, 4u);
  EXPECT_EQ(engine->stats().last_compaction_mode(), "merge");
  EXPECT_EQ(engine->stats().last_items_merged(), 3u);
  EXPECT_EQ(engine->stats().last_lists_touched(), 4u);
  EXPECT_EQ(engine->stats().merge_compactions(), 1u);

  const auto after = engine->snapshot();
  EXPECT_EQ(after->unindexed_items(), 0u);
  const InvertedIndex& old_inverted = before->indexes->inverted;
  const InvertedIndex& new_inverted = after->indexes->inverted;
  // Touched tags got NEW lists...
  EXPECT_NE(new_inverted.PostingsHandle(3), old_inverted.PostingsHandle(3));
  EXPECT_NE(new_inverted.PostingsHandle(8), old_inverted.PostingsHandle(8));
  // ...every other tag's list is shared pointer-identically.
  size_t shared_lists = 0;
  for (TagId tag = 0; tag < old_inverted.num_tags(); ++tag) {
    if (tag == 3 || tag == 8) continue;
    EXPECT_EQ(new_inverted.PostingsHandle(tag),
              old_inverted.PostingsHandle(tag))
        << "tag " << tag;
    if (new_inverted.PostingsHandle(tag) != nullptr) ++shared_lists;
  }
  EXPECT_GT(shared_lists, 0u);
  // Same for owner buckets: only users 1 and 2 were rebuilt.
  const SocialIndex& old_social = before->indexes->social;
  const SocialIndex& new_social = after->indexes->social;
  EXPECT_NE(new_social.BucketHandle(1), old_social.BucketHandle(1));
  EXPECT_NE(new_social.BucketHandle(2), old_social.BucketHandle(2));
  for (UserId user = 3; user < 20; ++user) {
    EXPECT_EQ(new_social.BucketHandle(user), old_social.BucketHandle(user))
        << "user " << user;
  }
}

TEST(CompactionInvarianceTest, AutoModePicksMergeForSmallTailsOnly) {
  DatasetConfig config = TestConfig(43u);
  config.geo_fraction = 0.0;
  Dataset dataset = GenerateDataset(config).value();
  auto built = SocialSearchEngine::Build(std::move(dataset.graph),
                                         std::move(dataset.store), {});
  ASSERT_TRUE(built.ok());
  SocialSearchEngine* engine = built.value().get();
  const size_t indexed = engine->snapshot()->index_horizon;
  ASSERT_GT(indexed, 40u);

  auto add_items = [&](size_t count) {
    Rng rng(count);
    for (size_t i = 0; i < count; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(250));
      item.tags = {static_cast<TagId>(rng.UniformIndex(120))};
      item.quality = static_cast<float>(rng.UniformDouble());
      ASSERT_TRUE(engine->AddItem(item).ok());
    }
  };

  // Small tail (well under the default 25% ratio): kAuto merges.
  add_items(indexed / 10);
  CompactionOutcome outcome;
  ASSERT_TRUE(engine->Compact(&outcome).ok());
  EXPECT_TRUE(outcome.merged);

  // Huge tail (several times the indexed base): kAuto rebuilds.
  add_items(engine->snapshot()->index_horizon * 2);
  ASSERT_TRUE(engine->Compact(&outcome).ok());
  EXPECT_FALSE(outcome.merged);
  EXPECT_EQ(engine->stats().last_compaction_mode(), "rebuild");
  EXPECT_EQ(engine->stats().merge_compactions(), 1u);
  EXPECT_EQ(engine->stats().rebuild_compactions(), 1u);
}

}  // namespace
}  // namespace amici
