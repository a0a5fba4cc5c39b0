#ifndef AMICI_PERSIST_SNAPSHOT_H_
#define AMICI_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine_snapshot.h"
#include "graph/social_graph.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "storage/item_store.h"
#include "storage/posting_list.h"
#include "util/status.h"

namespace amici {
namespace persist {

/// Shard-level snapshot save/load: the codecs between one engine's
/// immutable EngineSnapshot and a directory of segment files + manifest.
/// Every persisted deployment is a SearchService snapshot (see
/// src/service/service_persistence.h), so this directory is always a
/// service's shard-<i>/:
///
///   MANIFEST-<gen>      checksummed root of trust (persist/manifest.h);
///                       no CURRENT here — the service root manifest
///                       names the generation to open
///   items-<gen>.seg     catalogue rows [first_id, first_id + count)
///   postings-<gen>.seg  per-tag posting-list v2 images + impact arrays
///   social-<gen>.seg    per-owner quality-ordered buckets
///   grid-<gen>.seg      per-cell item lists (only when geo items exist)
///
/// The graph is not part of a shard: the service writes ONE graph segment
/// at its root for all shards, and a shard manifest that lists one is
/// Corruption.
///
/// Posting segments embed the PostingList v2 serialized image VERBATIM,
/// so a loaded snapshot maps them and traverses blocks zero-copy —
/// block-max skipping and SIMD batched decode run against the page
/// cache, not a deserialized copy.
///
/// Incremental saves: because merge compaction is bit-identical to a
/// full rebuild, a key's serialized list changes ONLY when items in
/// [prev index_horizon, new index_horizon) touch it. A save against a
/// compatible previous manifest therefore writes just those tags /
/// owners / cells (plus the new catalogue rows) as a new segment
/// generation; readers apply generations in order, latest wins per key,
/// and untouched segments stay live across saves.

struct SnapshotSaveReport {
  uint64_t generation = 0;
  bool incremental = false;
  uint64_t segments_written = 0;
  uint64_t lists_written = 0;  // posting lists + buckets + cells + item rows
  uint64_t bytes_written = 0;
};

struct SnapshotOpenOptions {
  /// Full payload checksum verification at open. Disabling defers page
  /// faults to first use (the cold-start bench's lazy path); header
  /// checksums and manifest cross-checks still run.
  bool verify_checksums = true;
};

/// What LoadEngineSnapshot reconstructs; the engine assembles it into a
/// live EngineSnapshot (the grid needs a view over the engine-owned
/// store, so GridIndex::Restore runs there, not here).
struct LoadedEngineState {
  Manifest manifest;
  ItemStore store;
  /// Tag-indexed handles for InvertedIndex::Restore. Posting lists VIEW
  /// the mapped segments (each holds its segment as keepalive).
  std::vector<std::shared_ptr<const PostingList>> doc_ordered;
  std::vector<std::shared_ptr<const std::vector<ScoredItem>>> impact_ordered;
  /// User-indexed buckets for SocialIndex::Restore.
  std::vector<std::shared_ptr<const std::vector<ScoredItem>>> social_buckets;
  /// Cell key -> ascending ids for GridIndex::Restore.
  std::vector<std::pair<uint64_t, std::shared_ptr<const std::vector<ItemId>>>>
      grid_cells;
};

/// Writes the segment files and MANIFEST-<generation> for `snap` into
/// `dir` (created if missing) — everything except the commit, which the
/// service performs once for all shards by writing its root manifest and
/// CURRENT. `prev`, when non-null, is the directory's live manifest: the
/// save is incremental when `snap` strictly extends it, full otherwise.
Result<Manifest> WriteEngineSnapshot(const std::string& dir,
                                     const EngineSnapshot& snap,
                                     uint64_t generation, const Manifest* prev,
                                     SnapshotSaveReport* report);

/// Writes `payload` as the generation-`generation` segment of `kind` in
/// `dir` ("<kind>-<6-digit generation>.seg", fsynced) and returns its
/// manifest entry; adds the segment and its bytes to `report`.
Result<SegmentInfo> WriteSegment(const std::string& dir, SegmentKind kind,
                                 uint64_t generation, std::string_view payload,
                                 uint64_t entries, SnapshotSaveReport* report);

/// Maps the segment `info` names in `dir` and checks it against that
/// manifest entry: the header's payload checksum and size must match what
/// the manifest recorded (and, when verifying, what the bytes hash to), so
/// a file swapped in from another snapshot cannot pass.
Result<std::shared_ptr<const MappedSegment>> OpenSegment(
    const std::string& dir, const SegmentInfo& info, bool verify_checksums);

/// Graph segment payload codec: a raw CSR image
///   u64 num_users | u64 neighbor_slots
///   | offsets u64*(num_users+1) | neighbors u32*neighbor_slots
/// so restoring the shared graph is two bulk copies plus an O(V + E)
/// shape check, not a varint decode of every edge (graph_io's "AMIG"
/// wire format stays for export/import paths where bytes matter more
/// than restart latency).
///
/// A delta-overlay graph (base CSR + replacement-row patch; see
/// src/proximity_service/) appends its patch as a replayable tail after
/// the base arrays:
///   u64 num_rows | num_rows * (u64 user | u64 len | u32*len row)
/// — each entry replays as "replace user's row", exactly the operation
/// edits perform, so the restored provider adopts the patch unfolded.
/// A patch-free graph writes no tail and the payload is byte-identical
/// to the legacy pure-CSR image (old snapshots parse unchanged).
std::string BuildGraphSegmentPayload(const SocialGraph& graph);
Result<SocialGraph> ParseGraphSegmentPayload(std::string_view payload);

/// Loads the state dir/MANIFEST-<generation> describes: maps and verifies
/// every live segment, replays item generations into a fresh store,
/// resolves per-key latest-wins over list generations. A service root
/// manifest (num_shards != 0) is InvalidArgument; a graph segment is
/// Corruption.
Result<LoadedEngineState> LoadEngineSnapshot(
    const std::string& dir, uint64_t generation,
    const SnapshotOpenOptions& options);

/// Deletes snapshot files in `dir` that `live` no longer references
/// (superseded segments, old manifests, stale WALs). Run after a
/// CURRENT commit; never required for correctness.
Status RemoveRetiredFiles(const std::string& dir, const Manifest& live);

}  // namespace persist
}  // namespace amici

#endif  // AMICI_PERSIST_SNAPSHOT_H_
