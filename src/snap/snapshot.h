// Versioned machine snapshots (checkpoint/restore).
//
// A snapshot is a small container around Core::SaveState:
//
//   magic    "MSIMSNAP"            8 bytes
//   version  u32                   kSnapshotVersion
//   config   u64                   CoreConfigHash of the saved machine
//   cycle    u64                   Core::cycle() at save time
//   sections u32 count, then per section: name (string), payload (bytes)
//
// The mandatory "core" section holds the complete machine state (including
// sparse DRAM). Callers can attach extra named sections — the CLI persists
// the fault-engine RNG position ("fault") and the mroutine profiler
// ("profiler") this way — and unknown sections are preserved for forward
// compatibility: restore hands them back instead of failing.
//
// Compatibility rules (docs/determinism.md):
//   * the version must match exactly — the format is byte-exact, so there is
//     no in-place migration;
//   * the CoreConfig hash must match the restoring machine's configuration —
//     timing parameters change architectural interleavings, so restoring
//     into a differently-configured core would be silently wrong.
// Both mismatches produce a clear FailedPrecondition error, never UB.
#ifndef MSIM_SNAP_SNAPSHOT_H_
#define MSIM_SNAP_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.h"

namespace msim {

class Core;
struct CoreConfig;

// Version 3: host-tier caches left the format. The core payload no longer
// carries the decoded-instruction cache that version 2 added, its size left
// the config hash, and a restored machine starts the superblock cache cold.
inline constexpr uint32_t kSnapshotVersion = 3;

// FNV-1a over every CoreConfig field except the host-tier knob fast_step;
// two configs hash equal iff a snapshot taken under one can be restored
// under the other.
uint64_t CoreConfigHash(const CoreConfig& config);

struct SnapshotSection {
  std::string name;
  std::vector<uint8_t> payload;
};

struct SnapshotMeta {
  uint32_t version = 0;
  uint64_t config_hash = 0;
  uint64_t cycle = 0;
};

// Serializes `core` (with DRAM) plus `extras` into a byte buffer.
std::vector<uint8_t> SaveSnapshot(const Core& core,
                                  const std::vector<SnapshotSection>& extras = {});

// Header-only parse: magic and version are validated, the config hash is not
// (callers use this to report *why* a snapshot is incompatible).
Result<SnapshotMeta> ReadSnapshotMeta(const std::vector<uint8_t>& image);

// Restores `core` from `image`. Validates magic, version and config hash
// against `core.config()` before touching any state. Extra sections are
// appended to `extras` when non-null (the "core" section is consumed).
Status RestoreSnapshot(Core& core, const std::vector<uint8_t>& image,
                       std::vector<SnapshotSection>* extras = nullptr);

// File variants.
Status SaveSnapshotFile(const Core& core, const std::string& path,
                        const std::vector<SnapshotSection>& extras = {});
Status RestoreSnapshotFile(Core& core, const std::string& path,
                           std::vector<SnapshotSection>* extras = nullptr);
Result<SnapshotMeta> ReadSnapshotMetaFile(const std::string& path);

// Shared by the replay log: whole-file byte I/O with Status errors.
Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Checkpoint discovery (used by the fleet supervisor to resume interrupted
// jobs, src/fleet). Lists the `checkpoint-<cycle>.msnap` files in `dir`,
// sorted by ascending cycle.
struct SnapshotFileInfo {
  std::string path;
  uint64_t cycle = 0;
};
Result<std::vector<SnapshotFileInfo>> ListSnapshots(const std::string& dir);

// Newest checkpoint in `dir` whose header parses (magic + version) and, when
// `expect_config_hash` is nonzero, whose CoreConfig hash matches. Corrupt or
// mismatched files are skipped, not errors — after a crash the newest file
// may be garbage while an older one is perfectly resumable.
Result<SnapshotFileInfo> FindLatestValidSnapshot(const std::string& dir,
                                                 uint64_t expect_config_hash = 0);

}  // namespace msim

#endif  // MSIM_SNAP_SNAPSHOT_H_
