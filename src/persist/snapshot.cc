#include "persist/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "persist/codec.h"
#include "persist/fs_util.h"
#include "util/hash.h"

namespace amici {
namespace persist {

namespace {

static_assert(sizeof(ScoredItem) == 8,
              "ScoredItem must be a packed (u32 item, f32 score) pair — the "
              "social/impact segment payloads memcpy arrays of it");

std::string SegmentFileName(SegmentKind kind, uint64_t generation) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "-%06llu.seg",
                static_cast<unsigned long long>(generation));
  return std::string(SegmentKindName(kind)) + buf;
}

void AppendScoredItems(std::span<const ScoredItem> items, std::string* out) {
  out->append(reinterpret_cast<const char*>(items.data()),
              items.size() * sizeof(ScoredItem));
}

// ---------------------------------------------------------------------------
// Payload builders. Every key table is sorted, so identical logical state
// always serializes to identical bytes (what the twin tests rely on).

// Items payload, ItemStore-column order so the loader bulk-appends whole
// columns instead of re-parsing rows:
//   u64 first | u64 count | u64 total_tags
//   | owner u32*count | quality f32*count | latitude f32*count
//   | longitude f32*count | tag_counts u32*count
//   | tag_data u32*total_tags | has_geo u8*count
// All 4-byte columns sit at 4-aligned payload offsets (24-byte header,
// 32-byte segment header, page-aligned mapping); the lone byte column
// goes last so it cannot misalign anything.
std::string BuildItemsPayload(const ItemStoreView& view, uint64_t first,
                              uint64_t count) {
  std::string payload;
  PutRaw<uint64_t>(first, &payload);
  PutRaw<uint64_t>(count, &payload);
  uint64_t total_tags = 0;
  for (uint64_t i = first; i < first + count; ++i) {
    total_tags += view.tags(static_cast<ItemId>(i)).size();
  }
  PutRaw<uint64_t>(total_tags, &payload);
  payload.reserve(payload.size() + count * 21 + total_tags * sizeof(TagId));
  for (uint64_t i = first; i < first + count; ++i) {
    PutRaw<UserId>(view.owner(static_cast<ItemId>(i)), &payload);
  }
  for (uint64_t i = first; i < first + count; ++i) {
    PutRaw<float>(view.quality(static_cast<ItemId>(i)), &payload);
  }
  // Geo fields of non-geo rows serialize as zero so identical logical
  // state is identical bytes regardless of what the ingest row carried.
  for (uint64_t i = first; i < first + count; ++i) {
    const ItemId item = static_cast<ItemId>(i);
    PutRaw<float>(view.has_geo(item) ? view.latitude(item) : 0.0f, &payload);
  }
  for (uint64_t i = first; i < first + count; ++i) {
    const ItemId item = static_cast<ItemId>(i);
    PutRaw<float>(view.has_geo(item) ? view.longitude(item) : 0.0f, &payload);
  }
  for (uint64_t i = first; i < first + count; ++i) {
    const auto tags = view.tags(static_cast<ItemId>(i));
    PutRaw<uint32_t>(static_cast<uint32_t>(tags.size()), &payload);
  }
  for (uint64_t i = first; i < first + count; ++i) {
    const auto tags = view.tags(static_cast<ItemId>(i));
    payload.append(reinterpret_cast<const char*>(tags.data()),
                   tags.size() * sizeof(TagId));
  }
  for (uint64_t i = first; i < first + count; ++i) {
    PutRaw<uint8_t>(view.has_geo(static_cast<ItemId>(i)) ? 1 : 0, &payload);
  }
  return payload;
}

// Postings payload: u64 num_entries | per entry {u32 tag, u64 list_offset,
// u64 list_bytes, u64 impact_offset, u64 impact_count} | blob. Offsets are
// relative to the blob, which starts right after the table.
std::string BuildPostingsPayload(const InvertedIndex& inverted,
                                 const std::vector<TagId>& tags,
                                 uint64_t* lists_written) {
  std::string table;
  std::string blob;
  PutRaw<uint64_t>(tags.size(), &table);
  for (const TagId tag : tags) {
    const auto handle = inverted.PostingsHandle(tag);
    PutRaw<uint32_t>(tag, &table);
    PutRaw<uint64_t>(blob.size(), &table);
    const size_t list_start = blob.size();
    if (handle != nullptr) handle->SerializeTo(&blob);
    PutRaw<uint64_t>(blob.size() - list_start, &table);
    // Impact arrays sit 4-aligned in the blob (the blob itself starts
    // 4-aligned after the fixed-width table), so the loader reads them
    // as ScoredItem directly from the mapping. Deterministic padding.
    blob.append((4 - blob.size() % 4) % 4, '\0');
    PutRaw<uint64_t>(blob.size(), &table);
    const auto impacts = inverted.ImpactOrdered(tag);
    PutRaw<uint64_t>(impacts.size(), &table);
    AppendScoredItems(impacts, &blob);
    ++*lists_written;
  }
  return table + blob;
}

// Social payload: u64 num_entries | per entry {u32 user, u64 offset,
// u64 count} | blob of ScoredItem.
std::string BuildSocialPayload(const SocialIndex& social,
                               const std::vector<UserId>& users,
                               uint64_t* lists_written) {
  std::string table;
  std::string blob;
  PutRaw<uint64_t>(users.size(), &table);
  for (const UserId user : users) {
    const auto items = social.ItemsOf(user);
    PutRaw<uint32_t>(user, &table);
    PutRaw<uint64_t>(blob.size() / sizeof(ScoredItem), &table);
    PutRaw<uint64_t>(items.size(), &table);
    AppendScoredItems(items, &blob);
    ++*lists_written;
  }
  return table + blob;
}

// Grid payload: f64 cell_size | u64 num_entries | per entry {u64 key,
// u64 offset, u64 count} | blob of u32 item ids.
std::string BuildGridPayload(const GridIndex& grid,
                             const std::vector<uint64_t>& keys,
                             uint64_t* lists_written) {
  std::unordered_map<uint64_t, const std::vector<ItemId>*> cells;
  grid.ForEachCell([&cells](uint64_t key, const std::vector<ItemId>& items) {
    cells[key] = &items;
  });
  std::string table;
  std::string blob;
  PutRaw<double>(grid.cell_size_deg(), &table);
  PutRaw<uint64_t>(keys.size(), &table);
  for (const uint64_t key : keys) {
    const auto it = cells.find(key);
    PutRaw<uint64_t>(key, &table);
    PutRaw<uint64_t>(blob.size() / sizeof(ItemId), &table);
    if (it == cells.end()) {
      PutRaw<uint64_t>(0, &table);  // cell emptied — cannot happen today
      continue;
    }
    PutRaw<uint64_t>(it->second->size(), &table);
    blob.append(reinterpret_cast<const char*>(it->second->data()),
                it->second->size() * sizeof(ItemId));
    ++*lists_written;
  }
  return table + blob;
}

// ---------------------------------------------------------------------------
// Reader-side appliers, one per kind, called in ascending generation
// order so later entries win per key.

Status ApplyItemsSegment(std::string_view payload, const SegmentInfo& info,
                         ItemStore* store) {
  size_t offset = 0;
  uint64_t first = 0;
  uint64_t count = 0;
  uint64_t total_tags = 0;
  if (!GetRaw(payload, &offset, &first) || !GetRaw(payload, &offset, &count) ||
      !GetRaw(payload, &offset, &total_tags)) {
    return Status::Corruption(info.file + ": truncated items header");
  }
  if (first != store->num_items()) {
    return Status::Corruption(info.file + ": items start at id " +
                              std::to_string(first) + ", store has " +
                              std::to_string(store->num_items()));
  }
  // Fixed column layout (see BuildItemsPayload): five 4-byte columns,
  // one byte column, and the tag blob = 21 bytes per row + 4 per tag.
  // Reject any size mismatch before handing raw column pointers to the
  // store (guards first so the exact check cannot overflow).
  if (count > (payload.size() - offset) / 21 ||
      total_tags > payload.size() / sizeof(TagId) ||
      offset + count * 21 + total_tags * sizeof(TagId) != payload.size()) {
    return Status::Corruption(info.file + ": items payload size mismatch");
  }
  const char* base = payload.data() + offset;
  const auto* owner = reinterpret_cast<const UserId*>(base);
  const auto* quality = reinterpret_cast<const float*>(base + 4 * count);
  const auto* latitude = reinterpret_cast<const float*>(base + 8 * count);
  const auto* longitude = reinterpret_cast<const float*>(base + 12 * count);
  const auto* tag_counts =
      reinterpret_cast<const uint32_t*>(base + 16 * count);
  const auto* tag_data = reinterpret_cast<const TagId*>(base + 20 * count);
  const auto* has_geo = reinterpret_cast<const uint8_t*>(
      base + 20 * count + total_tags * sizeof(TagId));
  const Status applied = store->AppendColumnarBlock(
      count, owner, quality, has_geo, latitude, longitude, tag_counts,
      tag_data, total_tags);
  if (!applied.ok()) {
    return Status::Corruption(info.file + ": block rejected by store: " +
                              applied.message());
  }
  return Status::Ok();
}

Status ApplyPostingsSegment(const std::shared_ptr<const MappedSegment>& seg,
                            const SegmentInfo& info, uint64_t num_tags,
                            bool has_impact_ordered,
                            LoadedEngineState* state) {
  const std::string_view payload = seg->payload();
  size_t offset = 0;
  uint64_t num_entries = 0;
  if (!GetRaw(payload, &offset, &num_entries) || num_entries != info.entries) {
    return Status::Corruption(info.file + ": postings entry count mismatch");
  }
  const size_t table_bytes =
      sizeof(uint64_t) +
      num_entries * (sizeof(uint32_t) + 4 * sizeof(uint64_t));
  if (payload.size() < table_bytes) {
    return Status::Corruption(info.file + ": truncated postings table");
  }
  const std::string_view blob = payload.substr(table_bytes);
  // Reserved up front: aliasing handles point INTO these arenas, so they
  // must never reallocate while being filled.
  auto lists = std::make_shared<std::vector<PostingList>>();
  lists->reserve(num_entries);
  auto impact_arena = std::make_shared<std::vector<std::vector<ScoredItem>>>();
  if (has_impact_ordered) impact_arena->reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint32_t tag = 0;
    uint64_t list_offset = 0, list_bytes = 0, impact_offset = 0,
             impact_count = 0;
    GetRaw(payload, &offset, &tag);
    GetRaw(payload, &offset, &list_offset);
    GetRaw(payload, &offset, &list_bytes);
    GetRaw(payload, &offset, &impact_offset);
    GetRaw(payload, &offset, &impact_count);
    if (tag >= num_tags) {
      return Status::Corruption(info.file + ": tag " + std::to_string(tag) +
                                " outside the manifest tag universe");
    }
    if (list_offset + list_bytes > blob.size() ||
        impact_offset + impact_count * sizeof(ScoredItem) > blob.size()) {
      return Status::Corruption(info.file + ": postings blob out of range");
    }
    size_t list_cursor = list_offset;
    auto list = PostingList::DeserializeView(blob, &list_cursor, seg);
    if (!list.ok()) {
      return Status::Corruption(info.file + ": tag " + std::to_string(tag) +
                                ": " + list.status().message());
    }
    if (list_cursor != list_offset + list_bytes) {
      return Status::Corruption(info.file + ": posting image length mismatch");
    }
    // Aliasing handles into per-segment arenas: ONE shared control block
    // for the whole segment instead of one per tag (a measurable slice
    // of restart latency with tens of thousands of tags).
    lists->push_back(std::move(list).value());
    state->doc_ordered[tag] =
        std::shared_ptr<const PostingList>(lists, &lists->back());
    if (has_impact_ordered) {
      // The writer 4-aligns impact arrays in the blob (and the mapping
      // is page-aligned), so they read as ScoredItem in place; the
      // range constructor writes each arena element exactly once.
      if ((reinterpret_cast<uintptr_t>(blob.data()) + impact_offset) %
              alignof(ScoredItem) !=
          0) {
        return Status::Corruption(info.file + ": misaligned impact array");
      }
      const auto* impacts =
          reinterpret_cast<const ScoredItem*>(blob.data() + impact_offset);
      impact_arena->emplace_back(impacts, impacts + impact_count);
      state->impact_ordered[tag] =
          std::shared_ptr<const std::vector<ScoredItem>>(
              impact_arena, &impact_arena->back());
    }
  }
  return Status::Ok();
}

Status ApplySocialSegment(std::string_view payload, const SegmentInfo& info,
                          uint64_t num_users, LoadedEngineState* state) {
  size_t offset = 0;
  uint64_t num_entries = 0;
  if (!GetRaw(payload, &offset, &num_entries) || num_entries != info.entries) {
    return Status::Corruption(info.file + ": social entry count mismatch");
  }
  const size_t table_bytes =
      sizeof(uint64_t) + num_entries * (sizeof(uint32_t) + 2 * sizeof(uint64_t));
  if (payload.size() < table_bytes) {
    return Status::Corruption(info.file + ": truncated social table");
  }
  const std::string_view blob = payload.substr(table_bytes);
  // Aliasing handles into one per-segment arena (reserved so it never
  // reallocates under the handles): one control block per segment, not
  // one make_shared per user.
  auto arena = std::make_shared<std::vector<std::vector<ScoredItem>>>();
  arena->reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint32_t user = 0;
    uint64_t item_offset = 0, count = 0;
    GetRaw(payload, &offset, &user);
    GetRaw(payload, &offset, &item_offset);
    GetRaw(payload, &offset, &count);
    if (user >= num_users) {
      return Status::Corruption(info.file + ": user " + std::to_string(user) +
                                " outside the manifest user universe");
    }
    if ((item_offset + count) * sizeof(ScoredItem) > blob.size()) {
      return Status::Corruption(info.file + ": social blob out of range");
    }
    // Bucket offsets are in whole ScoredItems and the blob starts
    // 4-aligned, so buckets read in place; range-construct (one touch).
    const auto* items = reinterpret_cast<const ScoredItem*>(
        blob.data() + item_offset * sizeof(ScoredItem));
    arena->emplace_back(items, items + count);
    state->social_buckets[user] =
        std::shared_ptr<const std::vector<ScoredItem>>(arena, &arena->back());
  }
  return Status::Ok();
}

Status ApplyGridSegment(
    std::string_view payload, const SegmentInfo& info, double cell_size_deg,
    std::unordered_map<uint64_t, std::shared_ptr<const std::vector<ItemId>>>*
        cells) {
  size_t offset = 0;
  double seg_cell_size = 0.0;
  uint64_t num_entries = 0;
  if (!GetRaw(payload, &offset, &seg_cell_size) ||
      !GetRaw(payload, &offset, &num_entries) || num_entries != info.entries) {
    return Status::Corruption(info.file + ": grid header mismatch");
  }
  if (seg_cell_size != cell_size_deg) {
    return Status::Corruption(info.file +
                              ": grid cell size differs from manifest");
  }
  const size_t table_bytes = sizeof(double) + sizeof(uint64_t) +
                             num_entries * (3 * sizeof(uint64_t));
  if (payload.size() < table_bytes) {
    return Status::Corruption(info.file + ": truncated grid table");
  }
  const std::string_view blob = payload.substr(table_bytes);
  // Same aliasing-arena trick as postings/social: one control block for
  // the whole segment's cells.
  auto arena = std::make_shared<std::vector<std::vector<ItemId>>>();
  arena->reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t key = 0, item_offset = 0, count = 0;
    GetRaw(payload, &offset, &key);
    GetRaw(payload, &offset, &item_offset);
    GetRaw(payload, &offset, &count);
    if ((item_offset + count) * sizeof(ItemId) > blob.size()) {
      return Status::Corruption(info.file + ": grid blob out of range");
    }
    const auto* items = reinterpret_cast<const ItemId*>(
        blob.data() + item_offset * sizeof(ItemId));
    arena->emplace_back(items, items + count);
    (*cells)[key] =
        std::shared_ptr<const std::vector<ItemId>>(arena, &arena->back());
  }
  return Status::Ok();
}

}  // namespace

Result<SegmentInfo> WriteSegment(const std::string& dir, SegmentKind kind,
                                 uint64_t generation, std::string_view payload,
                                 uint64_t entries, SnapshotSaveReport* report) {
  SegmentInfo info;
  info.kind = kind;
  info.generation = generation;
  info.file = SegmentFileName(kind, generation);
  info.payload_bytes = payload.size();
  info.checksum = Fnv1a64(payload);
  info.entries = entries;
  AMICI_RETURN_IF_ERROR(WriteSegmentFile(JoinPath(dir, info.file), kind,
                                         payload, info.checksum));
  ++report->segments_written;
  report->bytes_written += payload.size() + kSegmentHeaderSize;
  return info;
}

Result<std::shared_ptr<const MappedSegment>> OpenSegment(
    const std::string& dir, const SegmentInfo& info, bool verify_checksums) {
  AMICI_ASSIGN_OR_RETURN(
      std::shared_ptr<const MappedSegment> seg,
      MappedSegment::Open(JoinPath(dir, info.file), info.kind,
                          verify_checksums));
  if (seg->payload_checksum() != info.checksum ||
      seg->payload().size() != info.payload_bytes) {
    return Status::Corruption(info.file + ": segment does not match manifest");
  }
  return seg;
}

Result<Manifest> WriteEngineSnapshot(const std::string& dir,
                                     const EngineSnapshot& snap,
                                     uint64_t generation, const Manifest* prev,
                                     SnapshotSaveReport* report) {
  AMICI_RETURN_IF_ERROR(EnsureDir(dir));
  const ItemStoreView& view = snap.store;
  const InvertedIndex& inverted = snap.indexes->inverted;
  const SocialIndex& social = snap.indexes->social;
  const uint64_t num_items = view.num_items();
  const uint64_t num_tags = inverted.num_tags();
  const uint64_t num_users = snap.graph->num_users();

  // An incremental save is sound only against a base this state strictly
  // extends: same universe shape, monotone item/index growth, identical
  // index knobs. Anything else is a full save.
  const bool incremental =
      prev != nullptr && prev->num_items <= num_items &&
      prev->index_horizon <= snap.index_horizon &&
      prev->num_users == num_users && prev->num_tags <= num_tags &&
      (prev->has_impact_ordered != 0) == inverted.has_impact_ordered() &&
      (prev->has_grid == 0 ||
       (snap.grid != nullptr &&
        prev->grid_cell_size_deg == snap.grid->cell_size_deg()));

  // Delta keys. Items in [prev horizon, new horizon) are exactly the rows
  // compaction folded in since the last save; merge compaction being
  // bit-identical to rebuild means every untouched key's serialized list
  // is unchanged, so these keys are the complete dirty set — no dirty
  // tracking in the write path needed.
  std::vector<TagId> tags_to_write;
  std::vector<UserId> users_to_write;
  std::vector<uint64_t> cells_to_write;
  if (incremental) {
    std::set<TagId> dirty_tags;
    std::set<UserId> dirty_users;
    std::set<uint64_t> dirty_cells;
    for (uint64_t i = prev->index_horizon; i < snap.index_horizon; ++i) {
      const ItemId item = static_cast<ItemId>(i);
      for (const TagId tag : view.tags(item)) dirty_tags.insert(tag);
      if (view.owner(item) < num_users) dirty_users.insert(view.owner(item));
      if (view.has_geo(item) && snap.grid != nullptr) {
        dirty_cells.insert(
            snap.grid->CellKeyFor(view.latitude(item), view.longitude(item)));
      }
    }
    tags_to_write.assign(dirty_tags.begin(), dirty_tags.end());
    users_to_write.assign(dirty_users.begin(), dirty_users.end());
    cells_to_write.assign(dirty_cells.begin(), dirty_cells.end());
  } else {
    for (TagId tag = 0; tag < num_tags; ++tag) {
      if (inverted.PostingsHandle(tag) != nullptr) tags_to_write.push_back(tag);
    }
    for (UserId user = 0; user < num_users; ++user) {
      if (!social.ItemsOf(user).empty()) users_to_write.push_back(user);
    }
    if (snap.grid != nullptr) {
      snap.grid->ForEachCell([&cells_to_write](uint64_t key,
                                               const std::vector<ItemId>&) {
        cells_to_write.push_back(key);
      });
      std::sort(cells_to_write.begin(), cells_to_write.end());
    }
  }

  Manifest manifest;
  manifest.generation = generation;
  manifest.num_users = num_users;
  manifest.num_items = num_items;
  manifest.index_horizon = snap.index_horizon;
  manifest.num_tags = num_tags;
  manifest.graph_version = snap.graph_version;
  manifest.has_impact_ordered = inverted.has_impact_ordered() ? 1 : 0;
  manifest.has_grid = snap.grid != nullptr ? 1 : 0;
  manifest.grid_cell_size_deg =
      snap.grid != nullptr ? snap.grid->cell_size_deg() : 0.0;

  SnapshotSaveReport stats;
  stats.generation = generation;
  stats.incremental = incremental;

  // An incremental save carries every previous segment over; the new
  // generation's segments supersede them per key.
  if (incremental) manifest.segments = prev->segments;

  const auto emit = [&](SegmentKind kind, const std::string& payload,
                        uint64_t entries) -> Status {
    AMICI_ASSIGN_OR_RETURN(
        SegmentInfo info,
        WriteSegment(dir, kind, generation, payload, entries, &stats));
    manifest.segments.push_back(std::move(info));
    return Status::Ok();
  };

  // Item rows are deliberately NOT counted into lists_written: that
  // field reports per-key lists (tags / owners / cells) so callers can
  // judge how selective an incremental save was.
  const uint64_t first_item = incremental ? prev->num_items : 0;
  if (num_items > first_item) {
    const uint64_t count = num_items - first_item;
    AMICI_RETURN_IF_ERROR(emit(SegmentKind::kItems,
                               BuildItemsPayload(view, first_item, count),
                               count));
  }
  if (!tags_to_write.empty()) {
    AMICI_RETURN_IF_ERROR(
        emit(SegmentKind::kPostings,
             BuildPostingsPayload(inverted, tags_to_write, &stats.lists_written),
             tags_to_write.size()));
  }
  if (!users_to_write.empty()) {
    AMICI_RETURN_IF_ERROR(
        emit(SegmentKind::kSocial,
             BuildSocialPayload(social, users_to_write, &stats.lists_written),
             users_to_write.size()));
  }
  if (!cells_to_write.empty()) {
    AMICI_RETURN_IF_ERROR(
        emit(SegmentKind::kGrid,
             BuildGridPayload(*snap.grid, cells_to_write, &stats.lists_written),
             cells_to_write.size()));
  }

  AMICI_RETURN_IF_ERROR(WriteManifestFile(dir, manifest));
  AMICI_RETURN_IF_ERROR(SyncDir(dir));
  if (report != nullptr) *report = stats;
  return manifest;
}

std::string BuildGraphSegmentPayload(const SocialGraph& graph) {
  const std::vector<uint64_t>& offsets = graph.offsets();
  const std::vector<UserId>& neighbors = graph.neighbors();
  std::string payload;
  payload.reserve(2 * sizeof(uint64_t) + offsets.size() * sizeof(uint64_t) +
                  neighbors.size() * sizeof(UserId));
  PutRaw<uint64_t>(graph.num_users(), &payload);
  PutRaw<uint64_t>(neighbors.size(), &payload);
  payload.append(reinterpret_cast<const char*>(offsets.data()),
                 offsets.size() * sizeof(uint64_t));
  payload.append(reinterpret_cast<const char*>(neighbors.data()),
                 neighbors.size() * sizeof(UserId));
  if (graph.has_overlay() && graph.overlay()->num_rows() > 0) {
    const GraphOverlay& overlay = *graph.overlay();
    PutRaw<uint64_t>(overlay.num_rows(), &payload);
    overlay.ForEachRow([&](UserId user, const GraphOverlay::Row& row) {
      PutRaw<uint64_t>(user, &payload);
      PutRaw<uint64_t>(row.size(), &payload);
      payload.append(reinterpret_cast<const char*>(row.data()),
                     row.size() * sizeof(UserId));
    });
  }
  return payload;
}

Result<SocialGraph> ParseGraphSegmentPayload(std::string_view payload) {
  size_t offset = 0;
  uint64_t num_users = 0;
  uint64_t slots = 0;
  if (!GetRaw(payload, &offset, &num_users) ||
      !GetRaw(payload, &offset, &slots)) {
    return Status::Corruption("truncated graph header");
  }
  if (num_users > (payload.size() - offset) / sizeof(uint64_t) ||
      slots > payload.size() / sizeof(UserId) ||
      offset + (num_users + 1) * sizeof(uint64_t) + slots * sizeof(UserId) >
          payload.size()) {
    return Status::Corruption("graph payload size mismatch");
  }
  std::vector<uint64_t> offsets(num_users + 1);
  std::memcpy(offsets.data(), payload.data() + offset,
              offsets.size() * sizeof(uint64_t));
  offset += offsets.size() * sizeof(uint64_t);
  std::vector<UserId> neighbors(slots);
  std::memcpy(neighbors.data(), payload.data() + offset,
              slots * sizeof(UserId));
  offset += slots * sizeof(UserId);
  // Shape check before the CSR arrays are trusted by O(1) accessors:
  // monotone offsets bounded by the neighbor array, rows sorted/unique,
  // endpoints in range.
  if (offsets[0] != 0 || offsets[num_users] != slots) {
    return Status::Corruption("graph offsets do not cover the neighbors");
  }
  for (uint64_t u = 0; u < num_users; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return Status::Corruption("graph offsets are not monotone");
    }
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      if (neighbors[e] >= num_users ||
          (e > offsets[u] && neighbors[e] <= neighbors[e - 1])) {
        return Status::Corruption("graph adjacency row is not a sorted "
                                  "set of valid users");
      }
    }
  }
  SocialGraph base(std::move(offsets), std::move(neighbors));
  if (offset == payload.size()) return base;  // legacy pure-CSR image

  // Overlay tail: replacement rows replayed over the base (see the codec
  // comment in snapshot.h). Validated with the same rigor as the CSR —
  // these rows are what Friends() serves for the patched users.
  uint64_t num_rows = 0;
  if (!GetRaw(payload, &offset, &num_rows)) {
    return Status::Corruption("truncated graph overlay tail");
  }
  auto rows = std::make_shared<GraphOverlay::RowMap>();
  int64_t slot_delta = 0;
  for (uint64_t r = 0; r < num_rows; ++r) {
    uint64_t user = 0;
    uint64_t len = 0;
    if (!GetRaw(payload, &offset, &user) || !GetRaw(payload, &offset, &len)) {
      return Status::Corruption("truncated graph overlay row header");
    }
    if (user >= num_users || rows->count(static_cast<UserId>(user)) > 0) {
      return Status::Corruption("graph overlay row user invalid or repeated");
    }
    if (len > (payload.size() - offset) / sizeof(UserId)) {
      return Status::Corruption("graph overlay row overruns the payload");
    }
    std::vector<UserId> row(len);
    std::memcpy(row.data(), payload.data() + offset, len * sizeof(UserId));
    offset += len * sizeof(UserId);
    for (uint64_t e = 0; e < len; ++e) {
      if (row[e] >= num_users || row[e] == user ||
          (e > 0 && row[e] <= row[e - 1])) {
        return Status::Corruption("graph overlay row is not a sorted set "
                                  "of valid users");
      }
    }
    slot_delta += static_cast<int64_t>(len) -
                  static_cast<int64_t>(base.Degree(static_cast<UserId>(user)));
    rows->emplace(static_cast<UserId>(user),
                  std::make_shared<const GraphOverlay::Row>(std::move(row)));
  }
  if (offset != payload.size()) {
    return Status::Corruption("graph overlay tail has trailing bytes");
  }
  if (rows->empty()) return base;
  return SocialGraph(base, std::make_shared<const GraphOverlay>(
                               std::move(rows), slot_delta));
}

Result<LoadedEngineState> LoadEngineSnapshot(
    const std::string& dir, uint64_t generation,
    const SnapshotOpenOptions& options) {
  LoadedEngineState state;
  AMICI_ASSIGN_OR_RETURN(
      state.manifest,
      ReadManifestFile(JoinPath(dir, ManifestFileName(generation))));
  const Manifest& manifest = state.manifest;
  if (manifest.num_shards != 0) {
    return Status::InvalidArgument(
        dir + " holds a service root manifest (num_shards = " +
        std::to_string(manifest.num_shards) +
        "); open it through SearchService::OpenSnapshot");
  }

  // Group by kind, ascending generation within a kind (later
  // generations apply last so they win per key). Kinds populate
  // DISJOINT state fields, so they map + verify + apply concurrently —
  // the restart critical path is the slowest kind, not the sum.
  std::map<SegmentKind, std::vector<const SegmentInfo*>> by_kind;
  for (const SegmentInfo& info : manifest.segments) {
    if (info.kind == SegmentKind::kGraph) {
      // The service keeps the one graph at its root, never in a shard.
      return Status::Corruption(dir + ": shard manifest lists graph segment " +
                                info.file);
    }
    by_kind[info.kind].push_back(&info);
  }
  for (auto& [kind, infos] : by_kind) {
    std::stable_sort(infos.begin(), infos.end(),
                     [](const SegmentInfo* a, const SegmentInfo* b) {
                       return a->generation < b->generation;
                     });
  }

  state.doc_ordered.resize(manifest.num_tags);
  if (manifest.has_impact_ordered != 0) {
    state.impact_ordered.resize(manifest.num_tags);
  }
  state.social_buckets.resize(manifest.num_users);
  std::unordered_map<uint64_t, std::shared_ptr<const std::vector<ItemId>>>
      cells;

  const auto apply_kind =
      [&](const std::vector<const SegmentInfo*>& infos) -> Status {
    for (const SegmentInfo* info : infos) {
      AMICI_ASSIGN_OR_RETURN(
          const std::shared_ptr<const MappedSegment> seg,
          OpenSegment(dir, *info, options.verify_checksums));
      switch (info->kind) {
        case SegmentKind::kItems:
          AMICI_RETURN_IF_ERROR(
              ApplyItemsSegment(seg->payload(), *info, &state.store));
          break;
        case SegmentKind::kPostings:
          AMICI_RETURN_IF_ERROR(ApplyPostingsSegment(
              seg, *info, manifest.num_tags, manifest.has_impact_ordered != 0,
              &state));
          break;
        case SegmentKind::kSocial:
          AMICI_RETURN_IF_ERROR(ApplySocialSegment(
              seg->payload(), *info, manifest.num_users, &state));
          break;
        case SegmentKind::kGrid:
          AMICI_RETURN_IF_ERROR(ApplyGridSegment(
              seg->payload(), *info, manifest.grid_cell_size_deg, &cells));
          break;
        case SegmentKind::kGraph:
          // Unreachable: graph segments are refused before any kind runs.
          break;
      }
    }
    return Status::Ok();
  };

  // On multi-core machines each kind gets its own worker; on a single
  // core the threads would only interleave (and pay spawn/join), so
  // everything runs inline.
  std::vector<std::future<Status>> workers;
  if (std::thread::hardware_concurrency() > 1) {
    workers.reserve(by_kind.size());
    auto it = by_kind.begin();
    for (size_t i = 1; i < by_kind.size(); ++i) {
      ++it;
      workers.push_back(std::async(std::launch::async,
                                   [&apply_kind, infos = &it->second] {
                                     return apply_kind(*infos);
                                   }));
    }
  }
  // The first kind runs on this thread; join everything before touching
  // (or abandoning) `state`, even on error.
  Status first_error = Status::Ok();
  auto serial_it = by_kind.begin();
  if (serial_it != by_kind.end()) {
    first_error = apply_kind(serial_it->second);
    ++serial_it;
  }
  if (workers.empty()) {
    for (; serial_it != by_kind.end(); ++serial_it) {
      const Status status = apply_kind(serial_it->second);
      if (first_error.ok() && !status.ok()) first_error = status;
    }
  }
  for (std::future<Status>& worker : workers) {
    const Status status = worker.get();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  AMICI_RETURN_IF_ERROR(first_error);

  if (state.store.num_items() != manifest.num_items) {
    return Status::Corruption(
        "items segments reconstruct " + std::to_string(state.store.num_items()) +
        " items, manifest records " + std::to_string(manifest.num_items));
  }
  if (manifest.has_grid != 0) {
    state.grid_cells.reserve(cells.size());
    for (auto& [key, items] : cells) {
      state.grid_cells.emplace_back(key, std::move(items));
    }
  }
  return state;
}

Status RemoveRetiredFiles(const std::string& dir, const Manifest& live) {
  std::unordered_set<std::string> keep;
  keep.insert("CURRENT");
  keep.insert(ManifestFileName(live.generation));
  if (!live.wal_file.empty()) keep.insert(live.wal_file);
  for (const SegmentInfo& info : live.segments) keep.insert(info.file);

  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const bool snapshot_file = name.rfind("MANIFEST-", 0) == 0 ||
                               name.rfind("wal-", 0) == 0 ||
                               (name.size() > 4 &&
                                name.compare(name.size() - 4, 4, ".seg") == 0);
    if (snapshot_file && keep.find(name) == keep.end()) {
      AMICI_RETURN_IF_ERROR(RemoveFileIfExists(entry.path().string()));
    }
  }
  return Status::Ok();
}

}  // namespace persist
}  // namespace amici
