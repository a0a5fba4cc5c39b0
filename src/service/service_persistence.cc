#include "service/service_persistence.h"

#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>

#include "persist/fs_util.h"
#include "persist/snapshot.h"

namespace amici {

std::string ShardDirPath(const std::string& dir, size_t shard) {
  return persist::JoinPath(dir, "shard-" + std::to_string(shard));
}

namespace {

/// True when the shards of service root `root` hold their items where
/// SearchService looks for them (see persist::ShardPlacement). One-shard
/// roots always do: every placement puts item g at local id g.
bool PlacementReadable(const persist::Manifest& root) {
  return root.num_shards <= 1 ||
         root.placement == persist::ShardPlacement::kModulo;
}

/// Deletes the `shard-<i>/` directories of `dir` with i >= `num_shards`,
/// which an earlier save with more shards left and the committed root no
/// longer references. Saves write shards 0..N-1, so the leftovers are
/// contiguous; removing them from the highest down keeps them so when a
/// crash interrupts the cleanup.
Status RemoveRetiredShardDirs(const std::string& dir, size_t num_shards) {
  size_t end = num_shards;
  while (persist::FileExists(ShardDirPath(dir, end))) ++end;
  for (size_t s = end; s-- > num_shards;) {
    const std::string shard_dir = ShardDirPath(dir, s);
    std::error_code ec;
    std::filesystem::remove_all(shard_dir, ec);
    if (ec) return Status::IoError("remove " + shard_dir + ": " + ec.message());
  }
  return Status::Ok();
}

}  // namespace

Result<persist::SnapshotSaveReport> SaveServiceSnapshot(
    const std::string& dir, std::span<SocialSearchEngine* const> shards,
    ProximityProvider& provider, uint64_t num_items,
    ServicePersistState* state) {
  AMICI_RETURN_IF_ERROR(persist::EnsureDir(dir));

  // Previous committed root, if any. Generation numbering always
  // continues from it (even when it is incompatible and forces full
  // shard saves) so new files never collide with files the still-live
  // old snapshot references.
  std::optional<persist::Manifest> prev;
  if (persist::FileExists(persist::JoinPath(dir, "CURRENT"))) {
    AMICI_ASSIGN_OR_RETURN(persist::Manifest loaded,
                           persist::LoadCurrentManifest(dir));
    prev = std::move(loaded);
  }
  // A root under the retired hash placement keeps its shard segments out
  // of reach: their items sit on other shards than they would now. A
  // retired bare-engine root (num_shards = 0) has no shards to reuse.
  const bool prev_compatible = prev.has_value() &&
                               prev->num_shards == shards.size() &&
                               PlacementReadable(*prev);
  const uint64_t generation = prev.has_value() ? prev->generation + 1 : 1;

  persist::SnapshotSaveReport report;
  report.generation = generation;
  report.incremental = prev_compatible;

  // Shards first: each writes its segments + MANIFEST-<generation> into
  // shard-<i>/ (no CURRENT there — the root manifest pins the
  // generation). Incremental against the previous root's generation
  // when available.
  std::vector<persist::Manifest> shard_manifests;
  shard_manifests.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    const std::string shard_dir = ShardDirPath(dir, s);
    std::optional<persist::Manifest> shard_prev;
    if (prev_compatible) {
      const std::string prev_path = persist::JoinPath(
          shard_dir, persist::ManifestFileName(prev->generation));
      if (persist::FileExists(prev_path)) {
        AMICI_ASSIGN_OR_RETURN(persist::Manifest loaded,
                               persist::ReadManifestFile(prev_path));
        shard_prev = std::move(loaded);
      }
    }
    persist::SnapshotSaveReport shard_report;
    AMICI_ASSIGN_OR_RETURN(
        persist::Manifest manifest,
        shards[s]->WriteSnapshotFiles(shard_dir, generation,
                                      shard_prev ? &*shard_prev : nullptr,
                                      &shard_report));
    report.segments_written += shard_report.segments_written;
    report.lists_written += shard_report.lists_written;
    report.bytes_written += shard_report.bytes_written;
    report.incremental = report.incremental && shard_report.incremental;
    shard_manifests.push_back(std::move(manifest));
  }

  // The one shared graph, at the root. Skipped (segment carried over)
  // when this process knows the committed segment already holds the
  // current generation's bytes.
  const ProximityProvider::GraphView view = provider.Acquire();
  const bool graph_unchanged =
      prev_compatible && state->attached && state->dir == dir &&
      state->root.generation == prev->generation &&
      state->saved_graph_version == view.generation;
  persist::SegmentInfo graph_info;
  bool have_graph_info = false;
  if (graph_unchanged) {
    for (const persist::SegmentInfo& info : prev->segments) {
      if (info.kind == persist::SegmentKind::kGraph) {
        graph_info = info;
        have_graph_info = true;
        break;
      }
    }
  }
  if (!have_graph_info) {
    AMICI_ASSIGN_OR_RETURN(
        graph_info,
        persist::WriteSegment(dir, persist::SegmentKind::kGraph, generation,
                              persist::BuildGraphSegmentPayload(*view.graph),
                              view.graph->num_edges(), &report));
  }

  // Fresh (empty) WAL for the new snapshot, durable BEFORE the commit
  // names it.
  const std::string wal_name = persist::WalFileName(generation);
  AMICI_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::WalWriter> wal,
      persist::WalWriter::Create(persist::JoinPath(dir, wal_name),
                                 generation));

  persist::Manifest root;
  root.generation = generation;
  root.num_users = provider.num_users();
  root.num_items = num_items;
  root.graph_version = view.generation;
  root.num_shards = static_cast<uint32_t>(shards.size());
  root.wal_file = wal_name;
  root.segments.push_back(graph_info);
  AMICI_RETURN_IF_ERROR(persist::WriteManifestFile(dir, root));
  AMICI_RETURN_IF_ERROR(persist::SyncDir(dir));
  // THE commit point: everything above is durable, now make it live.
  AMICI_RETURN_IF_ERROR(persist::CommitCurrent(dir, generation));

  // Post-commit cleanup of superseded files (best-effort for
  // correctness, but surface IO errors).
  AMICI_RETURN_IF_ERROR(persist::RemoveRetiredFiles(dir, root));
  for (size_t s = 0; s < shards.size(); ++s) {
    AMICI_RETURN_IF_ERROR(
        persist::RemoveRetiredFiles(ShardDirPath(dir, s), shard_manifests[s]));
  }
  AMICI_RETURN_IF_ERROR(RemoveRetiredShardDirs(dir, shards.size()));

  state->dir = dir;
  state->root = std::move(root);
  state->wal = std::move(wal);
  state->saved_graph_version = view.generation;
  state->attached = true;
  return report;
}

Result<LoadedServiceSnapshot> OpenServiceSnapshot(
    const std::string& dir, const SocialSearchEngine::Options& engine_options,
    const persist::SnapshotOpenOptions& open_options,
    ServicePersistState* state) {
  LoadedServiceSnapshot out;
  AMICI_ASSIGN_OR_RETURN(out.root, persist::LoadCurrentManifest(dir));
  if (out.root.num_shards == 0) {
    return Status::FailedPrecondition(
        dir + " holds a bare-engine snapshot (root manifest num_shards = "
              "0), a layout this version no longer reads. Rebuild the "
              "service from its source data and save it with "
              "SearchService::SaveSnapshot.");
  }
  if (!PlacementReadable(out.root)) {
    return Status::FailedPrecondition(
        dir + " holds a " + std::to_string(out.root.num_shards) +
        "-shard snapshot written under the retired hash placement "
        "(manifest format 1); this version places item g on shard g % N "
        "and cannot read it. Rebuild the service from its source data.");
  }

  // The shared graph from the root segment.
  const persist::SegmentInfo* graph_info = nullptr;
  for (const persist::SegmentInfo& info : out.root.segments) {
    if (info.kind == persist::SegmentKind::kGraph) graph_info = &info;
  }
  if (graph_info == nullptr) {
    return Status::Corruption(dir + ": root manifest has no graph segment");
  }
  AMICI_ASSIGN_OR_RETURN(
      std::shared_ptr<const persist::MappedSegment> seg,
      persist::OpenSegment(dir, *graph_info, open_options.verify_checksums));
  auto graph = persist::ParseGraphSegmentPayload(seg->payload());
  if (!graph.ok()) {
    return Status::Corruption(graph_info->file + ": " +
                              graph.status().message());
  }
  if (graph.value().num_users() != out.root.num_users) {
    return Status::Corruption(graph_info->file +
                              ": graph user count does not match manifest");
  }
  out.provider = SocialSearchEngine::MakeProximityProvider(
      std::move(graph).value(), engine_options);

  // Every shard engine against its pinned manifest generation, all
  // consuming the one provider.
  out.shards.reserve(out.root.num_shards);
  uint64_t total_items = 0;
  for (size_t s = 0; s < out.root.num_shards; ++s) {
    SocialSearchEngine::Options shard_options = engine_options;
    shard_options.proximity_provider = out.provider;
    AMICI_ASSIGN_OR_RETURN(
        std::unique_ptr<SocialSearchEngine> engine,
        SocialSearchEngine::OpenSnapshot(ShardDirPath(dir, s),
                                         out.root.generation, shard_options,
                                         open_options));
    total_items += engine->store().num_items();
    out.shards.push_back(std::move(engine));
  }
  if (total_items != out.root.num_items) {
    return Status::Corruption(
        dir + ": shards reconstruct " + std::to_string(total_items) +
        " items, root manifest records " + std::to_string(out.root.num_items));
  }

  state->dir = dir;
  state->root = out.root;
  state->wal = nullptr;
  state->saved_graph_version = out.provider->Acquire().generation;
  state->attached = false;
  return out;
}

Result<persist::WalReplayStats> ReplayAndAttachWal(
    ServicePersistState* state, const persist::WalReplayHandlers& handlers) {
  if (state->root.wal_file.empty()) return persist::WalReplayStats{};
  const std::string path =
      persist::JoinPath(state->dir, state->root.wal_file);
  AMICI_ASSIGN_OR_RETURN(
      persist::WalReplayStats stats,
      persist::ReplayWal(path, state->root.generation, handlers));
  AMICI_ASSIGN_OR_RETURN(
      state->wal, persist::WalWriter::OpenForAppend(path,
                                                    stats.committed_bytes));
  state->attached = true;
  return stats;
}

Status LogAddItems(ServicePersistState* state, uint64_t first_item_id,
                   std::span<const Item> items) {
  if (!state->attached) return Status::Ok();
  AMICI_RETURN_IF_ERROR(state->wal->AppendAddItems(first_item_id, items));
  return state->wal->Flush();
}

Status LogFriendship(ServicePersistState* state, bool adding, UserId u,
                     UserId v) {
  if (!state->attached) return Status::Ok();
  AMICI_RETURN_IF_ERROR(adding ? state->wal->AppendAddFriendship(u, v)
                               : state->wal->AppendRemoveFriendship(u, v));
  return state->wal->Flush();
}

}  // namespace amici
