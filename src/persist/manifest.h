#ifndef AMICI_PERSIST_MANIFEST_H_
#define AMICI_PERSIST_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/segment.h"
#include "util/status.h"

namespace amici {
namespace persist {

/// One live segment file referenced by a manifest.
struct SegmentInfo {
  SegmentKind kind = SegmentKind::kItems;
  /// Save generation that wrote the file. Within a kind, readers apply
  /// segments in ascending generation order and later generations win
  /// per key (tag / owner / cell) — that is how an incremental save
  /// supersedes exactly the lists the tail touched.
  uint64_t generation = 0;
  std::string file;            // name within the snapshot directory
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;       // payload FNV-1a, must match segment header
  uint64_t entries = 0;        // items / lists / buckets / cells / edges
};

/// How a multi-shard service snapshot deals global item ids to shards.
/// Recorded in the root manifest from format version 2 on; format 1
/// manifests imply kHash.
enum class ShardPlacement : uint8_t {
  /// Retired: shard Mix64(id) % N. Unreadable with more than one shard.
  kHash = 0,
  /// Shard id % N at local id id / N.
  kModulo = 1,
};

/// The snapshot directory's root metadata: what state the segments
/// jointly encode and which files are live. Serialized with a trailing
/// FNV-1a checksum; committed via MANIFEST-<gen> + atomic CURRENT
/// rename, so a crash mid-save always leaves the previous snapshot
/// fully intact.
struct Manifest {
  uint64_t generation = 0;

  // Engine-level state (meaningful when num_shards == 0).
  uint64_t num_users = 0;
  uint64_t num_items = 0;       // catalogue extent covered by segments
  uint64_t index_horizon = 0;   // items [index_horizon, num_items) are tail
  uint64_t num_tags = 0;        // inverted-index width at save
  uint64_t graph_version = 0;   // proximity provider generation at save
  uint8_t has_impact_ordered = 0;
  uint8_t has_grid = 0;
  double grid_cell_size_deg = 0.0;

  // Service-level state (root manifest of a SearchService snapshot):
  // shards live in shard-<i>/ subdirectories, each with its own
  // MANIFEST-<gen> of the same generation. 0 = a shard manifest (or, at
  // a root, the retired bare-engine layout, which opens as an error).
  uint32_t num_shards = 0;
  ShardPlacement placement = ShardPlacement::kModulo;
  std::string wal_file;  // ingest WAL name, empty = none

  std::vector<SegmentInfo> segments;

  std::string Serialize() const;
  static Result<Manifest> Parse(std::string_view data);
};

/// "MANIFEST-<6-digit generation>".
std::string ManifestFileName(uint64_t generation);

/// Writes dir/MANIFEST-<gen> durably (no commit — CURRENT still names
/// the old manifest until CommitCurrent).
Status WriteManifestFile(const std::string& dir, const Manifest& manifest);

/// Reads and checksum-verifies a manifest file.
Result<Manifest> ReadManifestFile(const std::string& path);

/// Atomically points dir/CURRENT at MANIFEST-<generation> — the commit
/// point of a save.
Status CommitCurrent(const std::string& dir, uint64_t generation);

/// Reads dir/CURRENT; returns the manifest file name it names.
Result<std::string> ReadCurrent(const std::string& dir);

/// Convenience: ReadCurrent + ReadManifestFile.
Result<Manifest> LoadCurrentManifest(const std::string& dir);

}  // namespace persist
}  // namespace amici

#endif  // AMICI_PERSIST_MANIFEST_H_
