// MRAM: the small RAM collocated with the instruction fetch unit (paper §2).
//
// MRAM is split into a code segment (mroutines, fetched by the pipeline when
// executing in Metal mode) and a data segment (mroutine-private data, accessed
// with mld/mst). It is not on the system bus: normal loads/stores cannot reach
// it, and MRAM accesses never touch the caches.
//
// Reliability model (docs/robustness.md): every 32-bit word carries a parity
// bit maintained by the write path (loader writes, mst). Fault injection
// corrupts words *behind* the write path (CorruptCodeWord/CorruptDataWord), so
// a subsequent fetch or mld observes a parity mismatch — the pipeline turns
// that into a machine check instead of executing/returning the corrupted word.
// A shadow copy tracks the last legitimately written contents; Scrub()
// restores mismatching words from it (ECC-style scrubbing), which is what the
// machine-check recovery mroutine triggers through the MRAMSCRUB control
// register.
#ifndef MSIM_MEM_MRAM_H_
#define MSIM_MEM_MRAM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "support/result.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace msim {

class SnapWriter;
class SnapReader;

// The code segment occupies a dedicated region of the fetch address space so
// that intra-mroutine branches and jumps work unmodified.
inline constexpr uint32_t kMramCodeBase = 0xFFFF0000u;
inline constexpr uint32_t kMramCodeSize = 16 * 1024;  // 4096 instructions
inline constexpr uint32_t kMramDataSize = 8 * 1024;

struct MramStats {
  uint64_t code_fetches = 0;  // successful fetch-port reads
  uint64_t data_reads = 0;
  uint64_t data_writes = 0;
  uint64_t parity_errors = 0;   // mismatches observed by FetchCodeWord/DataParityError
  uint64_t words_corrupted = 0; // CorruptCodeWord/CorruptDataWord applications
  uint64_t words_scrubbed = 0;  // words restored from the shadow copy
};

class Mram {
 public:
  Mram();

  static bool InCodeRange(uint32_t addr) {
    return addr >= kMramCodeBase && addr < kMramCodeBase + kMramCodeSize;
  }

  // Fetch port (1-cycle; also read combinationally by the decode-stage
  // replacement chain). `addr` must be an aligned code address. Returns the
  // stored (possibly corrupted) word and whether it passes parity (always
  // true with parity off); counts the fetch, counts a parity error on a
  // mismatch and emits a kMramAccess event.
  struct CodeFetch {
    uint32_t word;
    bool parity_ok;
  };
  CodeFetch FetchCodeWord(uint32_t addr) const {
    ++stats_.code_fetches;
    if (tracer_ != nullptr) {
      tracer_->Emit(TraceEventKind::kMramAccess, addr, /*arg0=*/0, /*arg1=*/0, /*metal=*/true);
    }
    const uint32_t offset = addr - kMramCodeBase;
    const uint32_t word = LoadWord(code_, offset);
    const bool parity_ok = !parity_enabled_ || WordParity(word) == code_parity_[offset / 4];
    if (!parity_ok) {
      ++stats_.parity_errors;
    }
    return {word, parity_ok};
  }

  // Accounting for a fetch the superblock trace executor commits from a
  // decoded slot: counts the code fetch and emits the same trace event
  // FetchCodeWord would, without touching the array. Keeps
  // mram.code_fetches and the kMramAccess trace stream identical between
  // traced and per-cycle stepping.
  void NoteCachedFetch(uint32_t addr) const {
    ++stats_.code_fetches;
    if (tracer_ != nullptr) {
      tracer_->Emit(TraceEventKind::kMramAccess, addr, /*arg0=*/0, /*arg1=*/0, /*metal=*/true);
    }
  }

  // Side-effect-free code read for the superblock build walk and segment
  // revalidation (cpu/superblock.h): the stored word, or nullopt when `addr`
  // is outside the code segment or misaligned, or the word fails parity.
  // Counts nothing and emits no event.
  std::optional<uint32_t> PeekCodeWord(uint32_t addr) const;

  // Side-effect-free parity check of the data word at byte `offset` (in
  // range and aligned): false only when parity is enabled and the word fails
  // it. Unlike DataParityError it counts nothing; the trace executor uses it
  // to leave a failing mld to the per-cycle MEM stage.
  bool DataParityOk(uint32_t offset) const;

  // Monotonic mutation counter covering the CODE segment: bumped by loader
  // code writes, code corruption behind the write path, scrubs, Clear and
  // RestoreState. Metal superblock traces (cpu/superblock.h) stamp their
  // segments with it, so any code mutation forces a rebuild before a traced
  // decode is trusted again. Data-segment writes (mst) and data corruption
  // leave it alone: no decode depends on data, and every mld re-checks data
  // parity itself.
  uint64_t generation() const { return generation_; }

  // Loader-side write into the code segment (offset from kMramCodeBase).
  bool WriteCodeWord(uint32_t offset, uint32_t word);

  // Data segment, addressed by byte offset (mld/mst).
  std::optional<uint32_t> ReadData32(uint32_t offset) const;
  bool WriteData32(uint32_t offset, uint32_t value);

  // --- reliability model ---
  void SetParityEnabled(bool enabled) { parity_enabled_ = enabled; }
  bool parity_enabled() const { return parity_enabled_; }

  // True when parity is enabled and the stored data word at byte `offset`
  // mismatches its parity bit. Counts a parity error when it returns true.
  bool DataParityError(uint32_t offset) const;

  // Fault-injection ports: rewrite the stored word as (word & and_mask) ^
  // xor_mask WITHOUT updating parity or the shadow copy — this is corruption
  // behind the write path. Returns false for out-of-range/misaligned offsets.
  bool CorruptCodeWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask);
  bool CorruptDataWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask);

  // Restores every word that differs from the shadow copy and recomputes its
  // parity. Returns the number of words restored.
  uint32_t Scrub();

  void Clear();

  // Checkpoint/restore (src/snap): contents, shadow copies, parity bits and
  // counters — including corruption applied behind the write path, so a
  // restored machine re-observes the same parity errors.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

  const MramStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MramStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  static uint32_t LoadWord(const std::vector<uint8_t>& segment, uint32_t offset) {
    uint32_t word;
    std::memcpy(&word, &segment[offset], 4);
    return word;
  }
  // Returned as bool so that GCC folds it into an inline parity test
  // instead of a popcount library call.
  static bool WordParity(uint32_t word) { return (std::popcount(word) & 1) != 0; }
  void StoreWord(std::vector<uint8_t>& segment, uint32_t offset, uint32_t word);

  std::vector<uint8_t> code_;
  std::vector<uint8_t> data_;
  // Last legitimately written contents (loader writes and mst); Scrub()
  // restores the primary arrays from these.
  std::vector<uint8_t> code_shadow_;
  std::vector<uint8_t> data_shadow_;
  // One parity bit per 32-bit word, maintained by the write path only.
  std::vector<uint8_t> code_parity_;
  std::vector<uint8_t> data_parity_;
  bool parity_enabled_ = true;
  uint64_t generation_ = 0;
  // The fetch/read ports are architecturally read-only, so accounting from
  // the const accessors mutates through `mutable`.
  mutable MramStats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace msim

#endif  // MSIM_MEM_MRAM_H_
