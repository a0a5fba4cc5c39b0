// Incremental saves: a resave after compaction must emit ONLY the lists
// the tail actually touched (the compaction horizon delta is the dirty
// set — no dirty-bit bookkeeping anywhere), supersede them via segment
// generations, retire dead files after commit, and still reopen to a
// bit-identical engine. Each service here has one shard, whose engine is
// compared directly.

#include <dirent.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "service/search_service.h"
#include "service/service_persistence.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_incremental_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 200;
  config.items_per_user = 5.0;
  config.num_tags = 120;
  config.geo_fraction = 0.3;
  config.seed = seed;
  return config;
}

std::set<std::string> ListDir(const std::string& dir) {
  std::set<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return names;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.insert(name);
  }
  ::closedir(handle);
  return names;
}

SearchService::Options OneShard() {
  SearchService::Options options;
  options.num_shards = 1;
  return options;
}

Result<std::unique_ptr<SearchService>> BuildService(
    const DatasetConfig& config) {
  Dataset dataset = GenerateDataset(config).value();
  return SearchService::Build(std::move(dataset.graph),
                              std::move(dataset.store), OneShard());
}

void ExpectTwinEqual(SearchService* live_service, const std::string& dir,
                     const DatasetConfig& config, const std::string& label) {
  auto twin_service = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_TRUE(twin_service.ok())
      << label << ": " << twin_service.status().ToString();
  SocialSearchEngine* live = live_service->shard_engine(0);
  SocialSearchEngine* twin = twin_service.value()->shard_engine(0);
  ASSERT_EQ(twin->store().num_items(), live->store().num_items()) << label;

  Dataset view = GenerateDataset(config).value();
  QueryWorkloadConfig workload;
  workload.num_queries = 6;
  workload.seed = config.seed * 17 + 3;
  const std::vector<SocialQuery> queries =
      GenerateQueries(view, workload).value();
  for (const SocialQuery& query : queries) {
    for (const AlgorithmId algorithm :
         {AlgorithmId::kExhaustive, AlgorithmId::kMergeScan,
          AlgorithmId::kHybrid}) {
      const auto want = live->Query(query, algorithm);
      const auto got = twin->Query(query, algorithm);
      ASSERT_EQ(want.ok(), got.ok()) << label;
      if (!want.ok()) continue;
      ASSERT_EQ(want.value().items.size(), got.value().items.size())
          << label;
      for (size_t i = 0; i < want.value().items.size(); ++i) {
        EXPECT_EQ(want.value().items[i].item, got.value().items[i].item)
            << label << " rank " << i;
        EXPECT_EQ(want.value().items[i].score, got.value().items[i].score)
            << label << " rank " << i;
      }
    }
  }
}

TEST(IncrementalSnapshotTest, ResaveEmitsOnlyTouchedLists) {
  const DatasetConfig config = TestConfig(41);
  auto service = BuildService(config);
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("touched");

  const auto full = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full.value().incremental);
  const uint64_t full_lists = full.value().lists_written;
  ASSERT_GT(full_lists, 10u);

  // A small tail confined to TWO tags and THREE owners; after compaction
  // folds it in, the dirty set is exactly those keys.
  Rng rng(1);
  for (int i = 0; i < 12; ++i) {
    Item item;
    item.owner = static_cast<UserId>(3 + (i % 3));
    item.tags = {static_cast<TagId>(5 + (i % 2))};
    item.quality = static_cast<float>(rng.UniformDouble());
    ASSERT_TRUE(service.value()->AddItem(item).ok());
  }
  ASSERT_TRUE(service.value()->Compact().ok());

  const auto incremental = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_TRUE(incremental.value().incremental);
  EXPECT_EQ(incremental.value().generation, full.value().generation + 1);
  // 2 posting lists + 3 social buckets — far below a full rewrite. Leave
  // slack for grid cells touched by chance, but the bound must prove the
  // save did not degenerate to full.
  EXPECT_LE(incremental.value().lists_written, 8u);
  EXPECT_LT(incremental.value().bytes_written, full.value().bytes_written);

  ExpectTwinEqual(service.value().get(), dir, config, "incremental");
}

TEST(IncrementalSnapshotTest, RetirementKeepsExactlyTheLiveFiles) {
  const DatasetConfig config = TestConfig(43);
  auto service = BuildService(config);
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("retire");
  const auto first = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());

  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
    ASSERT_TRUE(service.value()->AddItem(item).ok());
  }
  ASSERT_TRUE(service.value()->Compact().ok());
  const auto second = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().incremental);

  // Directory contents == CURRENT + the committed manifest + its live
  // segments and WAL (+ the shard directory at the root), nothing else:
  // the superseded manifests are gone, generation-1 segments survive only
  // because later generations still reference none/some of their keys —
  // i.e. they are in the manifest.
  const auto root = persist::LoadCurrentManifest(dir);
  ASSERT_TRUE(root.ok());
  std::set<std::string> expected_root = {
      "CURRENT", persist::ManifestFileName(second.value().generation),
      root.value().wal_file, "shard-0"};
  for (const auto& info : root.value().segments) {
    expected_root.insert(info.file);
  }
  EXPECT_EQ(ListDir(dir), expected_root);
  const std::string shard_dir = ShardDirPath(dir, 0);
  const auto manifest = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(second.value().generation)));
  ASSERT_TRUE(manifest.ok());
  std::set<std::string> expected = {
      persist::ManifestFileName(second.value().generation)};
  for (const auto& info : manifest.value().segments) {
    expected.insert(info.file);
  }
  EXPECT_EQ(ListDir(shard_dir), expected);
  for (const std::string& retired_dir : {dir, shard_dir}) {
    EXPECT_FALSE(persist::FileExists(persist::JoinPath(
        retired_dir, persist::ManifestFileName(first.value().generation))));
  }

  // The carried-over generation-1 postings segment must still be listed
  // (only SOME lists were superseded).
  bool has_gen1_postings = false;
  for (const auto& info : manifest.value().segments) {
    if (info.kind == persist::SegmentKind::kPostings &&
        info.generation == first.value().generation) {
      has_gen1_postings = true;
    }
  }
  EXPECT_TRUE(has_gen1_postings);
}

TEST(IncrementalSnapshotTest, UnchangedEngineResavesNothing) {
  const DatasetConfig config = TestConfig(47);
  auto service = BuildService(config);
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("nochange");
  ASSERT_TRUE(service.value()->SaveSnapshot(dir).ok());

  const auto resave = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(resave.ok()) << resave.status().ToString();
  EXPECT_TRUE(resave.value().incremental);
  EXPECT_EQ(resave.value().lists_written, 0u);
  EXPECT_EQ(resave.value().segments_written, 0u);
  EXPECT_EQ(resave.value().bytes_written, 0u);

  ExpectTwinEqual(service.value().get(), dir, config, "nochange");
}

TEST(IncrementalSnapshotTest, ForeignBaseForcesFullSave) {
  // Saving a DIFFERENT corpus into an existing snapshot directory cannot
  // reuse its segments: the save must fall back to full and the
  // directory must come back as the new engine.
  const DatasetConfig config_a = TestConfig(51);
  DatasetConfig config_b = TestConfig(53);
  config_b.num_users = 90;  // different user universe
  auto service_a = BuildService(config_a);
  auto service_b = BuildService(config_b);
  ASSERT_TRUE(service_a.ok() && service_b.ok());

  const std::string dir = TempDir("foreign");
  const auto first = service_a.value()->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());
  const auto second = service_b.value()->SaveSnapshot(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().incremental);
  EXPECT_GT(second.value().generation, first.value().generation);

  ExpectTwinEqual(service_b.value().get(), dir, config_b, "foreign");
}

}  // namespace
}  // namespace amici
