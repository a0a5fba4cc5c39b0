// Crash and corruption drills for whole snapshot directories: a torn WAL
// tail must reopen to exactly the committed prefix, while ANY flipped bit
// in a segment or manifest must be refused loudly — never absorbed into
// a silently-wrong index.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/wal.h"
#include "service/local_search_service.h"
#include "service/search_service.h"
#include "service/service_persistence.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_crash_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 120;
  config.items_per_user = 3.0;
  config.num_tags = 80;
  config.seed = seed;
  return config;
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(file.good()) << path;
  return static_cast<uint64_t>(file.tellg());
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

Item SimpleItem(UserId owner, TagId tag, float quality) {
  Item item;
  item.owner = owner;
  item.tags = {tag};
  item.quality = quality;
  return item;
}

TEST(CrashSafetyTest, TruncatedWalTailReopensToCommittedPrefix) {
  const DatasetConfig config = TestConfig(3);
  Dataset dataset = GenerateDataset(config).value();
  auto live = LocalSearchService::Build(std::move(dataset.graph),
                                        std::move(dataset.store));
  ASSERT_TRUE(live.ok());
  const size_t base_items = live.value()->num_items();
  const std::string dir = TempDir("torn_wal");
  const auto report = live.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Five committed single-item appends (one WAL record each, fdatasync'd
  // per batch)...
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(live.value()
                    ->AddItem(SimpleItem(static_cast<UserId>(i), 2,
                                         0.25f + 0.1f * i))
                    .ok());
  }
  // ...then the crash: the last record loses its final 3 bytes.
  const std::string wal_path = persist::JoinPath(
      dir, persist::WalFileName(report.value().generation));
  const uint64_t size = FileSize(wal_path);
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(size - 3)), 0);

  persist::WalReplayStats stats;
  auto twin = LocalSearchService::OpenSnapshot(
      dir, LocalSearchService::Options(), persist::SnapshotOpenOptions(),
      &stats);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.records_applied, 4u);
  EXPECT_EQ(twin.value()->num_items(), base_items + 4);
  // The restored service is live: the lost item can simply be re-added,
  // and the reattached WAL (truncated past the tear) keeps logging.
  const auto readd = twin.value()->AddItem(SimpleItem(4, 2, 0.65f));
  ASSERT_TRUE(readd.ok()) << readd.status().ToString();
  EXPECT_EQ(readd.value(), base_items + 4);

  auto again = LocalSearchService::OpenSnapshot(
      dir, LocalSearchService::Options());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->num_items(), base_items + 5);
}

TEST(CrashSafetyTest, BitFlippedSegmentPayloadIsRejected) {
  const DatasetConfig config = TestConfig(7);
  auto service = BuildOneShardService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("segment_flip");
  const auto report = service->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The graph segment lives in the root, every other kind in shard-0/.
  const std::string shard_dir = ShardDirPath(dir, 0);
  const auto root = persist::LoadCurrentManifest(dir);
  ASSERT_TRUE(root.ok());
  ASSERT_FALSE(root.value().segments.empty());
  const auto shard = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(report.value().generation)));
  ASSERT_TRUE(shard.ok());
  ASSERT_FALSE(shard.value().segments.empty());
  std::vector<std::string> paths;
  for (const persist::SegmentInfo& info : root.value().segments) {
    paths.push_back(persist::JoinPath(dir, info.file));
  }
  for (const persist::SegmentInfo& info : shard.value().segments) {
    paths.push_back(persist::JoinPath(shard_dir, info.file));
  }
  // Flip one payload byte in EVERY segment kind in turn; each flip alone
  // must fail the open with a Corruption error naming a checksum problem.
  Rng rng(11);
  for (const std::string& path : paths) {
    const uint64_t payload_bytes = FileSize(path) - persist::kSegmentHeaderSize;
    const size_t offset = persist::kSegmentHeaderSize +
                          rng.UniformIndex(static_cast<size_t>(
                              std::max<uint64_t>(payload_bytes, 1)));
    FlipByte(path, offset);
    const auto twin = SearchService::OpenSnapshot(dir, OneShard());
    ASSERT_FALSE(twin.ok()) << path << " flip went undetected";
    EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
        << twin.status().ToString();
    FlipByte(path, offset);  // restore for the next kind
  }
  // Control: with every flip undone the directory opens cleanly.
  EXPECT_TRUE(SearchService::OpenSnapshot(dir, OneShard()).ok());
}

TEST(CrashSafetyTest, ShardManifestListingGraphSegmentIsCorruption) {
  // The one graph lives at the service root; a shard manifest naming a
  // graph segment is not something any save writes.
  const DatasetConfig config = TestConfig(8);
  auto service = BuildOneShardService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("shard_graph");
  const auto report = service->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string shard_dir = ShardDirPath(dir, 0);
  const auto root = persist::LoadCurrentManifest(dir);
  ASSERT_TRUE(root.ok());
  auto shard = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(report.value().generation)));
  ASSERT_TRUE(shard.ok());
  for (const persist::SegmentInfo& info : root.value().segments) {
    ASSERT_EQ(info.kind, persist::SegmentKind::kGraph);
    std::filesystem::copy_file(persist::JoinPath(dir, info.file),
                               persist::JoinPath(shard_dir, info.file));
    shard.value().segments.push_back(info);
  }
  ASSERT_TRUE(persist::WriteManifestFile(shard_dir, shard.value()).ok());

  const auto twin = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
      << twin.status().ToString();
  SocialSearchEngine::Options options;
  options.proximity_provider = service->proximity_provider();
  const auto engine = SocialSearchEngine::OpenSnapshot(
      shard_dir, report.value().generation, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kCorruption)
      << engine.status().ToString();
}

TEST(CrashSafetyTest, BitFlippedManifestIsRejected) {
  const DatasetConfig config = TestConfig(9);
  Dataset dataset = GenerateDataset(config).value();
  auto service = LocalSearchService::Build(std::move(dataset.graph),
                                           std::move(dataset.store));
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("manifest_flip");
  const auto report = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok());

  const std::string manifest_path = persist::JoinPath(
      dir, persist::ManifestFileName(report.value().generation));
  FlipByte(manifest_path, FileSize(manifest_path) / 2);
  const auto twin = LocalSearchService::OpenSnapshot(
      dir, LocalSearchService::Options());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
      << twin.status().ToString();
}

TEST(CrashSafetyTest, BitFlippedShardSegmentFailsShardedOpen) {
  const DatasetConfig config = TestConfig(13);
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 2;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("shard_flip");
  const auto report = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok());

  const std::string shard_dir = persist::JoinPath(dir, "shard-1");
  const auto shard_manifest = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(report.value().generation)));
  ASSERT_TRUE(shard_manifest.ok());
  ASSERT_FALSE(shard_manifest.value().segments.empty());
  const persist::SegmentInfo& info = shard_manifest.value().segments[0];
  FlipByte(persist::JoinPath(shard_dir, info.file),
           persist::kSegmentHeaderSize + info.payload_bytes / 2);

  const auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
      << twin.status().ToString();
}

TEST(CrashSafetyTest, InterruptedResaveLeavesPreviousSnapshotOpenable) {
  // Simulates a crash between "segments written" and "CURRENT renamed":
  // files of the next generation exist but CURRENT still names the old
  // manifest. Opening must serve the OLD snapshot untouched.
  const DatasetConfig config = TestConfig(15);
  auto service = BuildOneShardService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("mid_save");
  const auto first = service->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());
  SocialSearchEngine* engine = service->shard_engine(0);
  const size_t saved_items = engine->store().num_items();

  // Write generation-2 shard files WITHOUT committing the root (the crash
  // window). The item goes to the engine directly, so the WAL never
  // sees it: only the uncommitted files hold it.
  ASSERT_TRUE(engine->AddItem(SimpleItem(1, 3, 0.5f)).ok());
  persist::SnapshotSaveReport report;
  const auto uncommitted = engine->WriteSnapshotFiles(
      ShardDirPath(dir, 0), first.value().generation + 1, nullptr, &report);
  ASSERT_TRUE(uncommitted.ok()) << uncommitted.status().ToString();

  const auto twin = SearchService::OpenSnapshot(dir, OneShard());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->shard_engine(0)->store().num_items(), saved_items);
}

TEST(CrashSafetyTest, MissingCurrentIsCleanError) {
  const std::string dir = TempDir("empty");
  ASSERT_TRUE(persist::EnsureDir(dir).ok());
  SocialSearchEngine::Options options;
  options.proximity_provider = SocialSearchEngine::MakeProximityProvider(
      GenerateDataset(TestConfig(17)).value().graph, options);
  EXPECT_FALSE(SocialSearchEngine::OpenSnapshot(dir, 1, options).ok());
  EXPECT_FALSE(SearchService::OpenSnapshot(dir, OneShard()).ok());
}

}  // namespace
}  // namespace amici
