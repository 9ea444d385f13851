#include "snap/snapshot.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "cpu/config.h"
#include "cpu/core.h"
#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {

namespace {

constexpr char kMagic[8] = {'M', 'S', 'I', 'M', 'S', 'N', 'A', 'P'};
constexpr const char* kCoreSection = "core";

}  // namespace

uint64_t CoreConfigHash(const CoreConfig& config) {
  SnapWriter w(SnapWriter::Mode::kDigestOnly);
  w.U32(config.dram_size);
  w.U32(config.icache_lines);
  w.U32(config.icache_line_size);
  w.U32(config.dcache_lines);
  w.U32(config.dcache_line_size);
  w.U32(config.cache_hit_latency);
  w.U32(config.dram_latency);
  w.U32(config.mmio_latency);
  w.U32(config.mram_latency);
  w.U32(config.tlb_entries);
  w.U32(static_cast<uint32_t>(config.mroutine_storage));
  w.Bool(config.fast_transition);
  w.U32(config.dram_handler_code_base);
  w.U32(config.dram_handler_data_base);
  w.Bool(config.mram_parity);
  w.U64(config.metal_watchdog_cycles);
  // fast_step is deliberately ABSENT: the stepping mode is architecturally
  // invisible, and snapshots must stay portable across it (the lockstep
  // compare restores one snapshot into both a fast and a slow core).
  return w.digest();
}

std::vector<uint8_t> SaveSnapshot(const Core& core,
                                  const std::vector<SnapshotSection>& extras) {
  SnapWriter core_state;
  core.SaveState(core_state, /*include_dram=*/true);

  SnapWriter w;
  for (char c : kMagic) {
    w.U8(static_cast<uint8_t>(c));
  }
  w.U32(kSnapshotVersion);
  w.U64(CoreConfigHash(core.config()));
  w.U64(core.cycle());
  w.U32(static_cast<uint32_t>(1 + extras.size()));
  w.Str(kCoreSection);
  w.Bytes(core_state.bytes());
  for (const SnapshotSection& section : extras) {
    w.Str(section.name);
    w.Bytes(section.payload);
  }
  return w.TakeBytes();
}

namespace {

// Parses the fixed header; on success leaves `r` positioned at the section
// count.
Status ParseHeader(SnapReader& r, SnapshotMeta* meta) {
  char magic[8];
  for (char& c : magic) {
    c = static_cast<char>(r.U8());
  }
  MSIM_RETURN_IF_ERROR(r.ToStatus("snapshot magic"));
  for (size_t i = 0; i < sizeof(kMagic); ++i) {
    if (magic[i] != kMagic[i]) {
      return FailedPrecondition("not an msim snapshot (bad magic)");
    }
  }
  meta->version = r.U32();
  meta->config_hash = r.U64();
  meta->cycle = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("snapshot header"));
  if (meta->version != kSnapshotVersion) {
    return FailedPrecondition(StrFormat(
        "snapshot version %u is not supported by this build (expected %u); "
        "re-create the snapshot with a matching msim",
        meta->version, kSnapshotVersion));
  }
  return Status::Ok();
}

}  // namespace

Result<SnapshotMeta> ReadSnapshotMeta(const std::vector<uint8_t>& image) {
  SnapReader r(image);
  SnapshotMeta meta;
  MSIM_RETURN_IF_ERROR(ParseHeader(r, &meta));
  return meta;
}

Status RestoreSnapshot(Core& core, const std::vector<uint8_t>& image,
                       std::vector<SnapshotSection>* extras) {
  SnapReader r(image);
  SnapshotMeta meta;
  MSIM_RETURN_IF_ERROR(ParseHeader(r, &meta));
  const uint64_t want_hash = CoreConfigHash(core.config());
  if (meta.config_hash != want_hash) {
    return FailedPrecondition(StrFormat(
        "snapshot was taken under a different CoreConfig (hash %016llx, this "
        "machine %016llx); restore requires identical timing/storage "
        "configuration",
        static_cast<unsigned long long>(meta.config_hash),
        static_cast<unsigned long long>(want_hash)));
  }

  const uint32_t num_sections = r.U32();
  MSIM_RETURN_IF_ERROR(r.ToStatus("snapshot section count"));
  bool restored_core = false;
  for (uint32_t i = 0; i < num_sections; ++i) {
    const std::string name = r.Str();
    const std::span<const uint8_t> payload = r.BytesView();
    MSIM_RETURN_IF_ERROR(r.ToStatus("snapshot section"));
    if (name == kCoreSection) {
      SnapReader section(payload.data(), payload.size());
      MSIM_RETURN_IF_ERROR(core.RestoreState(section));
      restored_core = true;
    } else if (extras != nullptr) {
      extras->push_back(SnapshotSection{name, {payload.begin(), payload.end()}});
    }
  }
  if (!restored_core) {
    return InvalidArgument("snapshot has no core section");
  }
  return Status::Ok();
}

Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return NotFound(StrFormat("cannot open %s for writing", path.c_str()));
  }
  const size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && written == bytes.size();
  if (!ok) {
    return Internal(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[65536];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    return Internal(StrFormat("read error on %s", path.c_str()));
  }
  return bytes;
}

Status SaveSnapshotFile(const Core& core, const std::string& path,
                        const std::vector<SnapshotSection>& extras) {
  // Write-then-rename so a reader (or a resume after the writer was SIGKILLed
  // mid-save) never observes a truncated snapshot at the final path.
  const std::string tmp = path + ".tmp";
  MSIM_RETURN_IF_ERROR(WriteFileBytes(tmp, SaveSnapshot(core, extras)));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Internal(StrFormat("cannot rename %s into place", tmp.c_str()));
  }
  return Status::Ok();
}

Status RestoreSnapshotFile(Core& core, const std::string& path,
                           std::vector<SnapshotSection>* extras) {
  MSIM_ASSIGN_OR_RETURN(const std::vector<uint8_t> image, ReadFileBytes(path));
  return RestoreSnapshot(core, image, extras);
}

Result<SnapshotMeta> ReadSnapshotMetaFile(const std::string& path) {
  MSIM_ASSIGN_OR_RETURN(const std::vector<uint8_t> image, ReadFileBytes(path));
  return ReadSnapshotMeta(image);
}

Result<std::vector<SnapshotFileInfo>> ListSnapshots(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return NotFound(StrFormat("cannot open checkpoint directory %s", dir.c_str()));
  }
  std::vector<SnapshotFileInfo> found;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    // checkpoint-<cycle>.msnap, as written by `msim run --checkpoint-every`.
    constexpr const char* kPrefix = "checkpoint-";
    constexpr const char* kSuffix = ".msnap";
    if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix) ||
        name.compare(0, std::strlen(kPrefix), kPrefix) != 0 ||
        name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix), kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        std::strlen(kPrefix), name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
    const auto cycle = ParseInt(digits);
    if (!cycle || *cycle < 0) {
      continue;
    }
    found.push_back(SnapshotFileInfo{dir + "/" + name, static_cast<uint64_t>(*cycle)});
  }
  ::closedir(d);
  std::sort(found.begin(), found.end(),
            [](const SnapshotFileInfo& a, const SnapshotFileInfo& b) { return a.cycle < b.cycle; });
  return found;
}

Result<SnapshotFileInfo> FindLatestValidSnapshot(const std::string& dir,
                                                 uint64_t expect_config_hash) {
  MSIM_ASSIGN_OR_RETURN(std::vector<SnapshotFileInfo> all, ListSnapshots(dir));
  // Newest first; skip anything that fails header validation (a stray or
  // corrupt file must not stop a resume when an older good checkpoint exists).
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    const auto meta = ReadSnapshotMetaFile(it->path);
    if (!meta.ok()) {
      continue;
    }
    if (expect_config_hash != 0 && meta->config_hash != expect_config_hash) {
      continue;
    }
    it->cycle = meta->cycle;
    return *it;
  }
  return NotFound(StrFormat("no valid checkpoint in %s", dir.c_str()));
}

}  // namespace msim
