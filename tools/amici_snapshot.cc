// amici_snapshot — offline inspector for snapshot directories written by
// SearchService::SaveSnapshot, in the spirit of RocksDB's sst_dump/ldb
// manifest tooling:
//
//   amici_snapshot info   DIR   dump the committed manifest: generation,
//                               covered state, per-segment table
//                               (kind, generation, bytes, checksum,
//                               entries) and the WAL's committed extent;
//                               service roots recurse into shard-<i>/.
//   amici_snapshot verify DIR   re-read every live file and fail loudly:
//                               manifest checksums, every segment's
//                               payload FNV-1a against both its header
//                               and the manifest, WAL frame checksums.
//
// Restart-equivalence smoke (CI runs the pair in SEPARATE processes and
// diffs their stdout, proving a cold restart reproduces the exact top-k):
//
//   amici_snapshot smoke-save  DIR   build a deterministic 2-shard
//                                    service, save a snapshot into DIR,
//                                    ingest a WAL-logged tail, then print
//                                    every query result (hexfloat scores).
//   amici_snapshot smoke-query DIR   reopen DIR (map segments + replay
//                                    the WAL tail) and print the same
//                                    deterministic query results.
//
// Exit code 0 = clean; 1 = any integrity failure (verify) or read error.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

using persist::Manifest;
using persist::SegmentInfo;

/// Per-directory inspection/verification outcome, aggregated by main.
struct DirReport {
  uint64_t segments = 0;
  uint64_t bytes = 0;
  uint64_t failures = 0;
};

void PrintManifestHeader(const std::string& dir, const Manifest& m) {
  std::printf("%s\n", dir.c_str());
  std::printf("  manifest      %s (generation %" PRIu64 ")\n",
              persist::ManifestFileName(m.generation).c_str(), m.generation);
  if (m.num_shards > 0) {
    std::printf("  layout        service root, %u shard(s)\n", m.num_shards);
    std::printf("  placement     %s\n",
                m.placement == persist::ShardPlacement::kModulo
                    ? "item g on shard g % N"
                    : "hash (retired; unreadable with more than one shard)");
    std::printf("  users         %" PRIu64 "\n", m.num_users);
    std::printf("  items         %" PRIu64 "\n", m.num_items);
    std::printf("  wal           %s\n",
                m.wal_file.empty() ? "(none)" : m.wal_file.c_str());
  } else {
    std::printf("  layout        engine shard\n");
    std::printf("  users         %" PRIu64 "\n", m.num_users);
    std::printf("  items         %" PRIu64 " (indexed %" PRIu64
                ", tail %" PRIu64 ")\n",
                m.num_items, m.index_horizon, m.num_items - m.index_horizon);
    std::printf("  tags          %" PRIu64 "%s\n", m.num_tags,
                m.has_impact_ordered ? ", impact-ordered views" : "");
    if (m.has_grid) {
      std::printf("  grid          cell size %.4f deg\n",
                  m.grid_cell_size_deg);
    }
  }
}

/// Walks every live segment of `manifest`; in verify mode re-maps each one
/// with full checksum verification and cross-checks the manifest record.
DirReport InspectSegments(const std::string& dir, const Manifest& manifest,
                          bool verify) {
  DirReport report;
  if (!manifest.segments.empty()) {
    std::printf("  %-10s %-4s %-22s %12s %18s %10s\n", "kind", "gen", "file",
                "bytes", "checksum", "entries");
  }
  for (const SegmentInfo& info : manifest.segments) {
    report.segments++;
    report.bytes += info.payload_bytes;
    std::printf("  %-10s %-4" PRIu64 " %-22s %12" PRIu64 "   %016" PRIx64
                " %10" PRIu64 "\n",
                std::string(persist::SegmentKindName(info.kind)).c_str(),
                info.generation, info.file.c_str(), info.payload_bytes,
                info.checksum, info.entries);
    if (!verify) continue;
    const auto segment =
        persist::OpenSegment(dir, info, /*verify_checksums=*/true);
    if (!segment.ok()) {
      std::fprintf(stderr, "  FAIL %s: %s\n", info.file.c_str(),
                   segment.status().ToString().c_str());
      report.failures++;
    }
  }
  return report;
}

DirReport InspectWal(const std::string& dir, const Manifest& root) {
  DirReport report;
  if (root.wal_file.empty()) return report;
  auto stats =
      persist::ScanWal(persist::JoinPath(dir, root.wal_file), root.generation);
  if (!stats.ok()) {
    std::fprintf(stderr, "  FAIL %s: %s\n", root.wal_file.c_str(),
                 stats.status().ToString().c_str());
    report.failures++;
    return report;
  }
  std::printf("  wal extent    %" PRIu64 " committed record(s), %" PRIu64
              " byte(s)%s\n",
              stats.value().records_applied, stats.value().committed_bytes,
              stats.value().torn_tail ? ", TORN TAIL (will be truncated)"
                                      : "");
  return report;
}

Result<DirReport> InspectDir(const std::string& dir, bool verify) {
  AMICI_ASSIGN_OR_RETURN(const Manifest manifest,
                         persist::LoadCurrentManifest(dir));
  PrintManifestHeader(dir, manifest);
  if (manifest.num_shards == 0) {
    std::printf("  note          retired bare-engine root: "
                "SearchService::OpenSnapshot refuses it\n");
  }
  DirReport report = InspectSegments(dir, manifest, verify);
  const DirReport wal = InspectWal(dir, manifest);
  report.failures += wal.failures;

  for (uint32_t shard = 0; shard < manifest.num_shards; ++shard) {
    const std::string shard_dir =
        persist::JoinPath(dir, "shard-" + std::to_string(shard));
    // Shard dirs have no CURRENT: the root pins their generation.
    auto shard_manifest = persist::ReadManifestFile(persist::JoinPath(
        shard_dir, persist::ManifestFileName(manifest.generation)));
    if (!shard_manifest.ok()) return shard_manifest.status();
    PrintManifestHeader(shard_dir, shard_manifest.value());
    const DirReport sub =
        InspectSegments(shard_dir, shard_manifest.value(), verify);
    report.segments += sub.segments;
    report.bytes += sub.bytes;
    report.failures += sub.failures;
  }
  return report;
}

// --- Restart-equivalence smoke -------------------------------------------
//
// Everything below is shared, seed-pinned state: smoke-save and
// smoke-query run in different processes, so any nondeterminism here
// (dataset, tail, queries) would show up as a false diff in CI.

DatasetConfig SmokeDatasetConfig() {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.items_per_user = 4.0;
  config.num_tags = 200;
  config.geo_fraction = 0.4;
  config.seed = 20130408;
  return config;
}

/// The mutation tail acknowledged AFTER the save — it lives only in the
/// WAL, so smoke-query exercises real replay, not just segment mapping.
std::vector<Item> SmokeTailItems(const DatasetConfig& config) {
  Rng rng(config.seed * 7 + 3);
  std::vector<Item> tail(64);
  for (Item& item : tail) {
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags)),
                 static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
  }
  return tail;
}

Result<std::vector<SocialQuery>> SmokeQueries(const DatasetConfig& config) {
  AMICI_ASSIGN_OR_RETURN(const Dataset view, GenerateDataset(config));
  QueryWorkloadConfig plain;
  plain.num_queries = 6;
  plain.seed = config.seed * 31 + 1;
  AMICI_ASSIGN_OR_RETURN(std::vector<SocialQuery> queries,
                         GenerateQueries(view, plain));
  QueryWorkloadConfig geo;
  geo.num_queries = 2;
  geo.with_geo_filter = true;
  geo.radius_km = 30.0;
  geo.seed = config.seed * 31 + 2;
  AMICI_ASSIGN_OR_RETURN(const std::vector<SocialQuery> geo_queries,
                         GenerateQueries(view, geo));
  queries.insert(queries.end(), geo_queries.begin(), geo_queries.end());
  SocialQuery feed;  // pure social feed: alpha 1 ignores content score
  feed.user = 7;
  feed.alpha = 1.0;
  feed.k = 8;
  queries.push_back(feed);
  return queries;
}

constexpr AlgorithmId kSmokeStrategies[] = {
    AlgorithmId::kExhaustive,   AlgorithmId::kMergeScan,
    AlgorithmId::kContentFirst, AlgorithmId::kSocialFirst,
    AlgorithmId::kHybrid,
};

/// Prints every (query, strategy, mode) result with hexfloat scores —
/// byte-exact, so `diff` between the two processes is the equality test.
Status PrintSmokeResults(SearchService& service,
                         std::span<const SocialQuery> queries) {
  std::printf("catalogue %zu items, %zu users, %zu shard(s)\n",
              service.num_items(), service.num_users(), service.num_shards());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const AlgorithmId algorithm : kSmokeStrategies) {
      for (const MatchMode mode : {MatchMode::kAny, MatchMode::kAll}) {
        SearchRequest request;
        request.query = queries[q];
        request.query.mode = mode;
        request.algorithm = algorithm;
        AMICI_ASSIGN_OR_RETURN(const SearchResponse response,
                               service.Search(request));
        std::printf("q%zu algo%d mode%d:", q, static_cast<int>(algorithm),
                    static_cast<int>(mode));
        for (const ScoredItem& hit : response.items) {
          std::printf(" %u=%a", hit.item, hit.score);
        }
        std::printf("\n");
      }
    }
  }
  return Status::Ok();
}

Status RunSmokeSave(const std::string& dir) {
  const DatasetConfig config = SmokeDatasetConfig();
  AMICI_ASSIGN_OR_RETURN(Dataset dataset, GenerateDataset(config));
  ShardedSearchService::Options options;
  options.num_shards = 2;
  AMICI_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedSearchService> service,
      ShardedSearchService::Build(std::move(dataset.graph),
                                  std::move(dataset.store), options));
  AMICI_RETURN_IF_ERROR(service->SaveSnapshot(dir).status());
  // Acknowledged tail: WAL-only until the next save. Includes a graph
  // edit so replay covers both record kinds.
  const std::vector<Item> tail = SmokeTailItems(config);
  AMICI_RETURN_IF_ERROR(service->AddItems(tail).status());
  AMICI_RETURN_IF_ERROR(service->AddFriendship(
      7, static_cast<UserId>(config.num_users - 1)));
  AMICI_ASSIGN_OR_RETURN(const std::vector<SocialQuery> queries,
                         SmokeQueries(config));
  return PrintSmokeResults(*service, queries);
}

Status RunSmokeQuery(const std::string& dir) {
  const DatasetConfig config = SmokeDatasetConfig();
  AMICI_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedSearchService> service,
      ShardedSearchService::OpenSnapshot(dir,
                                         ShardedSearchService::Options()));
  AMICI_ASSIGN_OR_RETURN(const std::vector<SocialQuery> queries,
                         SmokeQueries(config));
  return PrintSmokeResults(*service, queries);
}

int Run(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (argc != 3 || (command != "info" && command != "verify" &&
                    command != "smoke-save" && command != "smoke-query")) {
    std::fprintf(stderr,
                 "usage: %s {info|verify|smoke-save|smoke-query} "
                 "SNAPSHOT_DIR\n",
                 argv[0]);
    return 1;
  }
  if (command == "smoke-save" || command == "smoke-query") {
    const Status status = command == "smoke-save" ? RunSmokeSave(argv[2])
                                                  : RunSmokeQuery(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  const bool verify = command == "verify";
  const std::string dir = argv[2];

  auto report = InspectDir(dir, verify);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("  total         %" PRIu64 " segment(s), %" PRIu64
              " payload byte(s)\n",
              report.value().segments, report.value().bytes);
  if (verify) {
    if (report.value().failures > 0) {
      std::fprintf(stderr, "verify FAILED: %" PRIu64 " bad file(s)\n",
                   report.value().failures);
      return 1;
    }
    std::printf("verify OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace amici

int main(int argc, char** argv) { return amici::Run(argc, argv); }
