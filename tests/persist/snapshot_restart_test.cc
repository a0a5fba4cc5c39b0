// The acceptance property of the snapshot subsystem: a reopened snapshot
// is the SAME engine, bit for bit. Every query — all six strategies,
// both match modes, plain/diverse/geo/pure-social — must return
// IDENTICAL items and IDENTICAL float scores on the restored twin, for a
// one-shard service's engine and for 1-, 2- and 4-shard services; fresh
// after a save, after WAL-replayed ingest, and after merge compaction +
// resave.
//
// Why exact equality (not the tie-tolerant comparison of the sharded
// invariance suite) is the right bar: the twin runs the same algorithm
// code over restored state that is byte-identical where it matters —
// posting images are mapped verbatim, buckets/cells/rows copied exactly
// — so even tie-breaks must reproduce.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "service/local_search_service.h"
#include "service/search_service.h"
#include "service/service_persistence.h"
#include "service/sharded_search_service.h"
#include "util/file_util.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

constexpr AlgorithmId kAllStrategies[] = {
    AlgorithmId::kExhaustive,  AlgorithmId::kMergeScan,
    AlgorithmId::kContentFirst, AlgorithmId::kSocialFirst,
    AlgorithmId::kHybrid,
};

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_restart_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 250;
  config.items_per_user = 4.0;
  config.num_tags = 150;
  config.geo_fraction = 0.4;
  config.seed = seed;
  return config;
}

/// Base query mix: plain blended, geo-filtered, and pure-social-feed
/// queries (the strategy/mode cross product is applied by the callers).
std::vector<SocialQuery> BaseQueries(const DatasetConfig& config) {
  Dataset view = GenerateDataset(config).value();
  QueryWorkloadConfig plain;
  plain.num_queries = 4;
  plain.seed = config.seed * 31 + 1;
  std::vector<SocialQuery> queries = GenerateQueries(view, plain).value();

  QueryWorkloadConfig geo;
  geo.num_queries = 2;
  geo.with_geo_filter = true;
  geo.radius_km = 30.0;
  geo.seed = config.seed * 31 + 2;
  const std::vector<SocialQuery> geo_queries =
      GenerateQueries(view, geo).value();
  for (const SocialQuery& query : geo_queries) {
    queries.push_back(query);
  }

  SocialQuery feed;
  feed.user = 7;
  feed.alpha = 1.0;
  feed.k = 8;
  queries.push_back(feed);
  return queries;
}

void ExpectIdenticalItems(const std::vector<ScoredItem>& want,
                          const std::vector<ScoredItem>& got,
                          const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].item, got[i].item) << label << " rank " << i;
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
  }
}

// --- One shard's engine --------------------------------------------------

void ExpectEngineTwin(SocialSearchEngine* live, SocialSearchEngine* twin,
                      std::span<const SocialQuery> queries,
                      const std::string& phase) {
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const AlgorithmId algorithm : kAllStrategies) {
      for (const MatchMode mode : {MatchMode::kAny, MatchMode::kAll}) {
        SocialQuery query = queries[q];
        query.mode = mode;
        const std::string label =
            phase + " query " + std::to_string(q) + " algo " +
            std::to_string(static_cast<int>(algorithm)) +
            (mode == MatchMode::kAll ? " all" : " any");
        const auto want = live->Query(query, algorithm);
        const auto got = twin->Query(query, algorithm);
        ASSERT_EQ(want.ok(), got.ok())
            << label << ": " << want.status().ToString() << " vs "
            << got.status().ToString();
        if (!want.ok()) continue;
        ExpectIdenticalItems(want.value().items, got.value().items, label);
      }
    }
    // Owner-diversified variant under the default strategy.
    const auto want = live->QueryDiverse(queries[q], 2, AlgorithmId::kHybrid);
    const auto got = twin->QueryDiverse(queries[q], 2, AlgorithmId::kHybrid);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      ExpectIdenticalItems(want.value().items, got.value().items,
                           phase + " diverse query " + std::to_string(q));
    }
  }
}

SearchService::Options OneShard() {
  SearchService::Options options;
  options.num_shards = 1;
  return options;
}

std::unique_ptr<SearchService> BuildOneShardService(
    const DatasetConfig& config) {
  Dataset dataset = GenerateDataset(config).value();
  auto service = SearchService::Build(std::move(dataset.graph),
                                      std::move(dataset.store), OneShard());
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(service).value() : nullptr;
}

TEST(SnapshotRestartTest, EngineTwinMatchesAcrossStrategiesAndModes) {
  const DatasetConfig config = TestConfig(5);
  auto live = BuildOneShardService(config);
  ASSERT_NE(live, nullptr);
  const std::vector<SocialQuery> queries = BaseQueries(config);

  const std::string dir = TempDir("engine");
  const auto report = live->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().incremental);
  EXPECT_GT(report.value().segments_written, 0u);

  auto twin = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  SocialSearchEngine* live_engine = live->shard_engine(0);
  SocialSearchEngine* twin_engine = twin.value()->shard_engine(0);
  EXPECT_EQ(twin_engine->store().num_items(),
            live_engine->store().num_items());
  ExpectEngineTwin(live_engine, twin_engine, queries, "fresh");

  // Ingest into BOTH, compact only the twin: queries must still agree
  // (compaction invariance composed with restore equivalence).
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
    const auto live_id = live->AddItem(item);
    const auto twin_id = twin.value()->AddItem(item);
    ASSERT_TRUE(live_id.ok() && twin_id.ok());
    EXPECT_EQ(live_id.value(), twin_id.value());
  }
  ASSERT_TRUE(twin_engine->Compact().ok());
  ExpectEngineTwin(live_engine, twin_engine, queries, "post-ingest");
}

TEST(SnapshotRestartTest, EngineRejectsServiceRootDirectory) {
  const DatasetConfig config = TestConfig(6);
  auto service = BuildOneShardService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("engine_vs_service");
  const auto report = service->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  SocialSearchEngine::Options options;
  options.proximity_provider = service->proximity_provider();
  const auto engine = SocialSearchEngine::OpenSnapshot(
      dir, report.value().generation, options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status().ToString();
}

TEST(SnapshotRestartTest, EngineOpenWithoutProviderIsInvalidArgument) {
  // A shard snapshot holds no graph, so the caller must supply the
  // provider the service restored from its root graph segment.
  const DatasetConfig config = TestConfig(7);
  auto service = BuildOneShardService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("engine_no_provider");
  const auto report = service->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto engine = SocialSearchEngine::OpenSnapshot(
      ShardDirPath(dir, 0), report.value().generation,
      SocialSearchEngine::Options());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status().ToString();

  // Control: the same shard directory opens with the provider.
  SocialSearchEngine::Options options;
  options.proximity_provider = service->proximity_provider();
  const auto opened = SocialSearchEngine::OpenSnapshot(
      ShardDirPath(dir, 0), report.value().generation, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->store().num_items(), service->num_items());
}

// --- Services ------------------------------------------------------------

std::unique_ptr<SearchService> BuildService(const DatasetConfig& config,
                                            size_t num_shards) {
  Dataset dataset = GenerateDataset(config).value();
  if (num_shards == 1) {
    auto service = LocalSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store));
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

std::unique_ptr<SearchService> OpenService(const std::string& dir,
                                           size_t num_shards) {
  if (num_shards == 1) {
    auto twin =
        LocalSearchService::OpenSnapshot(dir, LocalSearchService::Options());
    EXPECT_TRUE(twin.ok()) << twin.status().ToString();
    return twin.ok() ? std::move(twin).value() : nullptr;
  }
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  EXPECT_TRUE(twin.ok()) << twin.status().ToString();
  return twin.ok() ? std::move(twin).value() : nullptr;
}

/// The full request cross product: every base query under every strategy
/// hint and both match modes, plus diverse variants.
std::vector<SearchRequest> BuildRequests(const DatasetConfig& config) {
  std::vector<SearchRequest> requests;
  for (const SocialQuery& base : BaseQueries(config)) {
    for (const MatchMode mode : {MatchMode::kAny, MatchMode::kAll}) {
      for (const AlgorithmId algorithm : kAllStrategies) {
        SearchRequest request;
        request.query = base;
        request.query.mode = mode;
        request.algorithm = algorithm;
        requests.push_back(request);
      }
    }
    SearchRequest diverse;
    diverse.query = base;
    diverse.max_per_owner = 2;
    requests.push_back(diverse);
  }
  return requests;
}

void ExpectServiceTwin(SearchService* live, SearchService* twin,
                       std::span<const SearchRequest> requests,
                       const std::string& phase) {
  ASSERT_EQ(live->num_items(), twin->num_items()) << phase;
  ASSERT_EQ(live->num_users(), twin->num_users()) << phase;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string label = phase + " request " + std::to_string(i);
    const auto want = live->Search(requests[i]);
    const auto got = twin->Search(requests[i]);
    ASSERT_EQ(want.ok(), got.ok())
        << label << ": " << want.status().ToString() << " vs "
        << got.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << label;
      continue;
    }
    ExpectIdenticalItems(want.value().items, got.value().items, label);
  }
}

TEST(SnapshotRestartTest, ServiceTwinsAcrossShardCounts) {
  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    const DatasetConfig config = TestConfig(17 + num_shards);
    auto live = BuildService(config, num_shards);
    const std::vector<SearchRequest> requests = BuildRequests(config);
    const std::string dir =
        TempDir("service_" + std::to_string(num_shards));

    // Phase 1: freshly saved snapshot, empty WAL.
    const auto report = live->SaveSnapshot(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    {
      auto twin = OpenService(dir, num_shards);
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(twin->num_shards(), num_shards);
      ExpectServiceTwin(live.get(), twin.get(), requests, "fresh");
    }

    // Phase 2: mutate the LIVE service only. The mutations land in the
    // attached WAL, so a twin opened from the same directory must catch
    // up purely by replaying the tail.
    Rng rng(config.seed * 3 + 1);
    std::vector<Item> batch;
    for (int i = 0; i < 30; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
      if (rng.Bernoulli(0.3)) {
        item.tags.push_back(
            static_cast<TagId>(rng.UniformIndex(config.num_tags)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      if (rng.Bernoulli(0.4)) {
        item.has_geo = true;
        item.latitude = static_cast<float>(rng.UniformDouble() - 0.5);
        item.longitude = static_cast<float>(rng.UniformDouble() - 0.5);
      }
      batch.push_back(item);
    }
    ASSERT_TRUE(
        live->AddItems(std::span<const Item>(batch.data(), 15)).ok());
    for (size_t i = 15; i < batch.size(); ++i) {
      ASSERT_TRUE(live->AddItem(batch[i]).ok());
    }
    for (int flip = 0; flip < 4; ++flip) {
      const UserId u =
          static_cast<UserId>(rng.UniformIndex(config.num_users));
      const UserId v =
          static_cast<UserId>(rng.UniformIndex(config.num_users));
      if (u == v) continue;
      (void)live->AddFriendship(u, v);
    }
    {
      persist::WalReplayStats stats;
      std::unique_ptr<SearchService> twin;
      if (num_shards == 1) {
        auto opened = LocalSearchService::OpenSnapshot(
            dir, LocalSearchService::Options(),
            persist::SnapshotOpenOptions(), &stats);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        twin = std::move(opened).value();
      } else {
        auto opened = ShardedSearchService::OpenSnapshot(
            dir, ShardedSearchService::Options(),
            persist::SnapshotOpenOptions(), &stats);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        twin = std::move(opened).value();
      }
      EXPECT_GT(stats.records_applied, 0u) << "tail was not replayed";
      ExpectServiceTwin(live.get(), twin.get(), requests, "wal-replay");
    }

    // Phase 3: fold the tail into the indexes (merge compaction), save
    // again — the second generation — and reopen.
    ASSERT_TRUE(live->Compact().ok());
    EXPECT_EQ(live->unindexed_items(), 0u);
    const auto second = live->SaveSnapshot(dir);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_GT(second.value().generation, report.value().generation);
    {
      auto twin = OpenService(dir, num_shards);
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(twin->unindexed_items(), 0u);
      ExpectServiceTwin(live.get(), twin.get(), requests, "post-compact");
    }
  }
}

TEST(SnapshotRestartTest, ShardCountMismatchesAreRejected) {
  const DatasetConfig config = TestConfig(23);
  auto sharded = BuildService(config, 2);
  const std::string dir = TempDir("mismatch");
  ASSERT_TRUE(sharded->SaveSnapshot(dir).ok());

  // A 2-shard root is not a local snapshot...
  EXPECT_FALSE(
      LocalSearchService::OpenSnapshot(dir, LocalSearchService::Options())
          .ok());
  // ...but the sharded opener takes its shard count from the manifest.
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->num_shards(), 2u);

  // The layout is uniform, so the sharded opener handles a 1-shard
  // (local) root too — it simply becomes a single-shard deployment.
  auto local = BuildService(config, 1);
  const std::string local_dir = TempDir("mismatch_local");
  ASSERT_TRUE(local->SaveSnapshot(local_dir).ok());
  auto one = ShardedSearchService::OpenSnapshot(
      local_dir, ShardedSearchService::Options());
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value()->num_shards(), 1u);
  EXPECT_EQ(one.value()->num_items(), local->num_items());
}

TEST(SnapshotRestartTest, ShrinkingShardCountRemovesRetiredShardDirs) {
  const DatasetConfig config = TestConfig(29);
  const std::string dir = TempDir("shrink");
  auto four = BuildService(config, 4);
  ASSERT_TRUE(four->SaveSnapshot(dir).ok());
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(persist::FileExists(ShardDirPath(dir, s))) << s;
  }

  // Resave the same data with 2 shards into the same directory: the
  // committed root names shard-0/ and shard-1/ only, so shard-2/ and
  // shard-3/ must go.
  auto two = BuildService(config, 2);
  ASSERT_TRUE(two->SaveSnapshot(dir).ok());
  EXPECT_TRUE(persist::FileExists(ShardDirPath(dir, 0)));
  EXPECT_TRUE(persist::FileExists(ShardDirPath(dir, 1)));
  EXPECT_FALSE(persist::FileExists(ShardDirPath(dir, 2)));
  EXPECT_FALSE(persist::FileExists(ShardDirPath(dir, 3)));

  auto twin = OpenService(dir, 2);
  ASSERT_NE(twin, nullptr);
  EXPECT_EQ(twin->num_shards(), 2u);
  const std::vector<SearchRequest> requests = BuildRequests(config);
  ExpectServiceTwin(two.get(), twin.get(), requests, "after-shrink");
}

TEST(SnapshotRestartTest, LocalSnapshotReopensThroughShardedOpener) {
  // One layout for every shard count: what LocalSearchService saves —
  // segments plus a logged WAL tail — the general opener reopens as a
  // one-shard service with the identical top-k.
  const DatasetConfig config = TestConfig(29);
  Dataset dataset = GenerateDataset(config).value();
  auto live = LocalSearchService::Build(std::move(dataset.graph),
                                        std::move(dataset.store))
                  .value();
  const std::string dir = TempDir("local_as_sharded");
  ASSERT_TRUE(live->SaveSnapshot(dir).ok());
  Rng rng(config.seed * 5 + 2);
  for (int i = 0; i < 12; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
    ASSERT_TRUE(live->AddItem(item).ok());
  }

  persist::WalReplayStats stats;
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options(), persist::SnapshotOpenOptions(),
      &stats);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->num_shards(), 1u);
  EXPECT_EQ(twin.value()->backend_name(), "sharded/1");
  EXPECT_GT(stats.records_applied, 0u) << "tail was not replayed";
  ExpectServiceTwin(live.get(), twin.value().get(), BuildRequests(config),
                    "local-as-sharded");
}

TEST(SnapshotRestartTest, ReopenedServiceKeepsLoggingAndReopens) {
  // save -> reopen -> mutate the TWIN -> reopen again: the reopened
  // service's attached WAL must capture the second round of mutations.
  const DatasetConfig config = TestConfig(31);
  auto live = BuildService(config, 2);
  const std::string dir = TempDir("relog");
  ASSERT_TRUE(live->SaveSnapshot(dir).ok());

  auto first = OpenService(dir, 2);
  ASSERT_NE(first, nullptr);
  Item item;
  item.owner = 3;
  item.tags = {TagId{1}, TagId{4}};
  item.quality = 0.75f;
  const auto id = first->AddItem(item);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(first->AddFriendship(2, 9).ok());

  auto second = OpenService(dir, 2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->num_items(), first->num_items());
  EXPECT_EQ(second->OwnerOf(id.value()), 3u);
  const auto friends = second->FriendsOf(2);
  EXPECT_TRUE(std::find(friends.begin(), friends.end(), UserId{9}) !=
              friends.end());
}

TEST(SnapshotRestartTest, ThreeShardRoundTripKeepsAppending) {
  // save -> reopen -> append through the reopened service -> reopen
  // again. `reference` is never saved: it receives the same appends
  // directly, so the last twin is checked against a service that never
  // went through a snapshot.
  const DatasetConfig config = TestConfig(37);
  auto live = BuildService(config, 3);
  auto reference = BuildService(config, 3);
  const std::vector<SearchRequest> requests = BuildRequests(config);
  const std::string dir = TempDir("round_trip_3");
  ASSERT_TRUE(live->SaveSnapshot(dir).ok());

  auto first = OpenService(dir, 3);
  ASSERT_NE(first, nullptr);
  ExpectServiceTwin(live.get(), first.get(), requests, "reopened");

  Rng rng(config.seed * 7 + 3);
  for (const size_t batch_size : {size_t{1}, size_t{5}, size_t{7}}) {
    std::vector<Item> batch;
    for (size_t i = 0; i < batch_size; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
      item.quality = static_cast<float>(rng.UniformDouble());
      batch.push_back(item);
    }
    const auto reference_ids = reference->AddItems(batch);
    const auto appended_ids = first->AddItems(batch);
    ASSERT_TRUE(reference_ids.ok()) << reference_ids.status().ToString();
    ASSERT_TRUE(appended_ids.ok()) << appended_ids.status().ToString();
    EXPECT_EQ(reference_ids.value(), appended_ids.value());
  }
  ExpectServiceTwin(reference.get(), first.get(), requests, "appended");

  auto second = OpenService(dir, 3);
  ASSERT_NE(second, nullptr);
  ExpectServiceTwin(reference.get(), second.get(), requests, "re-reopened");
}

/// Rewrites the committed root manifest of `dir` in manifest format 1,
/// which had no placement byte and so implies the retired hash placement.
void DowngradeRootManifestToFormat1(const std::string& dir) {
  const std::string path =
      persist::JoinPath(dir, persist::ReadCurrent(dir).value());
  const std::string v2 = ReadFileToString(path).value();
  // Format 2 inserts the placement byte right after num_shards: magic,
  // version, six u64 counters, two u8 flags, the grid cell size, then
  // the u32 shard count.
  constexpr size_t kVersionOffset = 4;
  constexpr size_t kPlacementOffset = 4 + 2 + 6 * 8 + 2 + 8 + 4;
  ASSERT_EQ(v2[kVersionOffset], 2);
  std::string v1 = v2.substr(0, kPlacementOffset);
  v1[kVersionOffset] = 1;
  v1.append(v2, kPlacementOffset + 1,
            v2.size() - sizeof(uint64_t) - kPlacementOffset - 1);
  const uint64_t checksum = Fnv1a64(v1);
  v1.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  ASSERT_TRUE(persist::WriteFileDurable(path, v1).ok());
  const auto parsed = persist::ReadManifestFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().placement, persist::ShardPlacement::kHash);
}

TEST(SnapshotRestartTest, HashPlacedMultiShardRootIsRejectedAndFullySaved) {
  const DatasetConfig config = TestConfig(41);
  auto live = BuildService(config, 3);
  const std::string dir = TempDir("hash_placed");
  const auto first = live->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  DowngradeRootManifestToFormat1(dir);

  const auto opened = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);

  // The service's own save over it is a full save that reopens: an
  // incremental save would reuse the hash-placed shard segments.
  const auto resaved = live->SaveSnapshot(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_FALSE(resaved.value().incremental);
  EXPECT_GT(resaved.value().generation, first.value().generation);
  auto twin = OpenService(dir, 3);
  ASSERT_NE(twin, nullptr);
  ExpectServiceTwin(live.get(), twin.get(), BuildRequests(config),
                    "resaved");
}

TEST(SnapshotRestartTest, BareEngineRootIsRefusedAndFullySaved) {
  // The retired bare-engine layout: CURRENT names a num_shards = 0
  // manifest whose segments, graph included, sit in the root directory.
  // Built here from a one-shard save by moving shard-0's files up.
  const DatasetConfig config = TestConfig(8);
  auto live = BuildOneShardService(config);
  ASSERT_NE(live, nullptr);
  const std::string dir = TempDir("bare_engine_root");
  const auto first = live->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t generation = first.value().generation;
  const persist::Manifest root = persist::LoadCurrentManifest(dir).value();
  persist::Manifest bare =
      persist::ReadManifestFile(
          persist::JoinPath(ShardDirPath(dir, 0),
                            persist::ManifestFileName(generation)))
          .value();
  ASSERT_EQ(bare.num_shards, 0u);
  for (const persist::SegmentInfo& info : bare.segments) {
    std::filesystem::copy_file(
        persist::JoinPath(ShardDirPath(dir, 0), info.file),
        persist::JoinPath(dir, info.file));
  }
  bare.segments.insert(bare.segments.end(), root.segments.begin(),
                       root.segments.end());
  bare.generation = generation + 1;
  ASSERT_TRUE(persist::WriteManifestFile(dir, bare).ok());
  ASSERT_TRUE(persist::CommitCurrent(dir, bare.generation).ok());

  const auto opened = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("Rebuild"), std::string::npos)
      << opened.status().ToString();

  // A service save over it is a full save that reopens.
  const auto resaved = live->SaveSnapshot(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_FALSE(resaved.value().incremental);
  EXPECT_GT(resaved.value().generation, bare.generation);
  auto twin = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ExpectServiceTwin(live.get(), twin.value().get(), BuildRequests(config),
                    "resaved over bare engine");
}

TEST(SnapshotRestartTest, FormatOneSingleShardRootStillOpens) {
  // With one shard every placement puts item g at local id g.
  const DatasetConfig config = TestConfig(43);
  auto live = BuildService(config, 1);
  const std::string dir = TempDir("format1_local");
  ASSERT_TRUE(live->SaveSnapshot(dir).ok());
  DowngradeRootManifestToFormat1(dir);
  auto twin = OpenService(dir, 1);
  ASSERT_NE(twin, nullptr);
  ExpectServiceTwin(live.get(), twin.get(), BuildRequests(config),
                    "format-1 local");
}

}  // namespace
}  // namespace amici
