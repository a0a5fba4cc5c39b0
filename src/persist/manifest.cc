#include "persist/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "persist/codec.h"
#include "persist/fs_util.h"
#include "util/file_util.h"
#include "util/hash.h"

namespace amici {
namespace persist {

namespace {
constexpr char kManifestMagic[4] = {'A', 'M', 'I', 'M'};
/// Version 2 added the shard placement byte after num_shards.
constexpr uint16_t kManifestFormatVersion = 2;
constexpr std::string_view kCurrentFile = "CURRENT";
}  // namespace

std::string Manifest::Serialize() const {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  PutRaw<uint16_t>(kManifestFormatVersion, &out);
  PutRaw<uint64_t>(generation, &out);
  PutRaw<uint64_t>(num_users, &out);
  PutRaw<uint64_t>(num_items, &out);
  PutRaw<uint64_t>(index_horizon, &out);
  PutRaw<uint64_t>(num_tags, &out);
  PutRaw<uint64_t>(graph_version, &out);
  PutRaw<uint8_t>(has_impact_ordered, &out);
  PutRaw<uint8_t>(has_grid, &out);
  PutRaw<double>(grid_cell_size_deg, &out);
  PutRaw<uint32_t>(num_shards, &out);
  PutRaw<uint8_t>(static_cast<uint8_t>(placement), &out);
  PutLengthPrefixed(wal_file, &out);
  PutRaw<uint32_t>(static_cast<uint32_t>(segments.size()), &out);
  for (const SegmentInfo& info : segments) {
    PutRaw<uint16_t>(static_cast<uint16_t>(info.kind), &out);
    PutRaw<uint64_t>(info.generation, &out);
    PutLengthPrefixed(info.file, &out);
    PutRaw<uint64_t>(info.payload_bytes, &out);
    PutRaw<uint64_t>(info.checksum, &out);
    PutRaw<uint64_t>(info.entries, &out);
  }
  PutRaw<uint64_t>(Fnv1a64(out), &out);
  return out;
}

Result<Manifest> Manifest::Parse(std::string_view data) {
  if (data.size() < sizeof(kManifestMagic) + sizeof(uint64_t) ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Corruption("manifest: bad magic");
  }
  const std::string_view body = data.substr(0, data.size() - sizeof(uint64_t));
  uint64_t checksum = 0;
  size_t tail = body.size();
  GetRaw(data, &tail, &checksum);
  if (Fnv1a64(body) != checksum) {
    return Status::Corruption("manifest: checksum mismatch");
  }
  size_t offset = sizeof(kManifestMagic);
  uint16_t version = 0;
  if (!GetRaw(body, &offset, &version)) {
    return Status::Corruption("manifest: truncated version");
  }
  if (version != 1 && version != kManifestFormatVersion) {
    return Status::Corruption("manifest: unsupported format version " +
                              std::to_string(version));
  }
  Manifest m;
  uint32_t num_segments = 0;
  if (!GetRaw(body, &offset, &m.generation) ||
      !GetRaw(body, &offset, &m.num_users) ||
      !GetRaw(body, &offset, &m.num_items) ||
      !GetRaw(body, &offset, &m.index_horizon) ||
      !GetRaw(body, &offset, &m.num_tags) ||
      !GetRaw(body, &offset, &m.graph_version) ||
      !GetRaw(body, &offset, &m.has_impact_ordered) ||
      !GetRaw(body, &offset, &m.has_grid) ||
      !GetRaw(body, &offset, &m.grid_cell_size_deg) ||
      !GetRaw(body, &offset, &m.num_shards)) {
    return Status::Corruption("manifest: truncated header");
  }
  uint8_t placement = static_cast<uint8_t>(ShardPlacement::kHash);
  if (version >= 2 && !GetRaw(body, &offset, &placement)) {
    return Status::Corruption("manifest: truncated header");
  }
  if (placement > static_cast<uint8_t>(ShardPlacement::kModulo)) {
    return Status::Corruption("manifest: unknown shard placement " +
                              std::to_string(placement));
  }
  m.placement = static_cast<ShardPlacement>(placement);
  if (!GetLengthPrefixed(body, &offset, &m.wal_file) ||
      !GetRaw(body, &offset, &num_segments)) {
    return Status::Corruption("manifest: truncated header");
  }
  m.segments.reserve(num_segments);
  for (uint32_t i = 0; i < num_segments; ++i) {
    SegmentInfo info;
    uint16_t kind_raw = 0;
    if (!GetRaw(body, &offset, &kind_raw) ||
        !GetRaw(body, &offset, &info.generation) ||
        !GetLengthPrefixed(body, &offset, &info.file) ||
        !GetRaw(body, &offset, &info.payload_bytes) ||
        !GetRaw(body, &offset, &info.checksum) ||
        !GetRaw(body, &offset, &info.entries)) {
      return Status::Corruption("manifest: truncated segment entry");
    }
    if (kind_raw < static_cast<uint16_t>(SegmentKind::kItems) ||
        kind_raw > static_cast<uint16_t>(SegmentKind::kGraph)) {
      return Status::Corruption("manifest: unknown segment kind " +
                                std::to_string(kind_raw));
    }
    info.kind = static_cast<SegmentKind>(kind_raw);
    m.segments.push_back(std::move(info));
  }
  if (offset != body.size()) {
    return Status::Corruption("manifest: trailing bytes");
  }
  return m;
}

std::string ManifestFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06" PRIu64, generation);
  return buf;
}

Status WriteManifestFile(const std::string& dir, const Manifest& manifest) {
  return WriteFileDurable(JoinPath(dir, ManifestFileName(manifest.generation)),
                          manifest.Serialize());
}

Result<Manifest> ReadManifestFile(const std::string& path) {
  AMICI_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  auto manifest = Manifest::Parse(data);
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  path + ": " + manifest.status().message());
  }
  return manifest;
}

Status CommitCurrent(const std::string& dir, uint64_t generation) {
  return WriteFileAtomic(JoinPath(dir, kCurrentFile),
                         ManifestFileName(generation) + "\n");
}

Result<std::string> ReadCurrent(const std::string& dir) {
  AMICI_ASSIGN_OR_RETURN(std::string data,
                         ReadFileToString(JoinPath(dir, kCurrentFile)));
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  if (data.empty() || data.find('/') != std::string::npos) {
    return Status::Corruption(dir + "/CURRENT: malformed manifest name");
  }
  return data;
}

Result<Manifest> LoadCurrentManifest(const std::string& dir) {
  AMICI_ASSIGN_OR_RETURN(std::string name, ReadCurrent(dir));
  return ReadManifestFile(JoinPath(dir, name));
}

}  // namespace persist
}  // namespace amici
