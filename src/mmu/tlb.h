// Software-managed TLB with address-space IDs and page keys (paper §2.3).
//
// There is no hardware page-table walker: TLB misses raise exceptions that
// the processor delegates to mroutines, which walk whatever structure the OS
// chose (paper §3.2, custom page tables). Entries carry:
//   * an ASID so multiple address spaces can coexist in the TLB,
//   * a 4-bit page key indirecting permissions through the key-permission
//     control register (fast batch permission changes), and
//   * a superpage bit (4 MiB mappings) alongside regular 4 KiB pages.
#ifndef MSIM_MMU_TLB_H_
#define MSIM_MMU_TLB_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "support/result.h"
#include "trace/metrics.h"

namespace msim {

class SnapWriter;
class SnapReader;

// PTE layout (the rs2 operand of tlbwr and the result of tlbrd):
//   [31:12] ppn    physical page number (bits [31:12] of the frame address)
//   [11:8]  key    page key
//   [7]     G      global (matches every ASID)
//   [6]     S      superpage (4 MiB; low 10 ppn bits ignored)
//   [5]     X      executable
//   [4]     W      writable
//   [3]     R      readable
//   [2:0]   reserved (written as zero)
inline constexpr uint32_t kPteR = 1u << 3;
inline constexpr uint32_t kPteW = 1u << 4;
inline constexpr uint32_t kPteX = 1u << 5;
inline constexpr uint32_t kPteSuper = 1u << 6;
inline constexpr uint32_t kPteGlobal = 1u << 7;

inline constexpr uint32_t kPageShift = 12;
inline constexpr uint32_t kPageSize = 1u << kPageShift;
inline constexpr uint32_t kSuperPageShift = 22;

// Builds a PTE word.
constexpr uint32_t MakePte(uint32_t paddr_frame, uint32_t perms, uint32_t key = 0,
                           bool global = false, bool superpage = false) {
  return (paddr_frame & 0xFFFFF000u) | ((key & 0xFu) << 8) | (global ? kPteGlobal : 0u) |
         (superpage ? kPteSuper : 0u) | (perms & (kPteR | kPteW | kPteX));
}

struct TlbEntry {
  bool valid = false;
  uint32_t vpn = 0;   // virtual page number (vaddr >> 12); superpages store vaddr >> 22
  uint16_t asid = 0;
  uint32_t pte = 0;

  bool global() const { return (pte & kPteGlobal) != 0; }
  bool superpage() const { return (pte & kPteSuper) != 0; }
  uint32_t key() const { return (pte >> 8) & 0xF; }
};

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
};

// The entries live in one array scanned in ascending slot order: the first
// valid entry that matches wins, and round-robin replacement picks victims by
// slot. A hash index answers that scan in O(1): bucket (vpn, page size)
// holds a bitmask of the slots whose entry it keys, one word per 64 slots,
// so a lookup ORs the two buckets a vaddr can hit (its 4 KiB and its 4 MiB
// page) and tests the candidates in ascending slot order — exactly the
// linear scan's first match, with hash collisions only adding candidates the
// full match rejects. A second bitmask marks the free slots for Insert.
// Every mutation keeps both in step with the entry array; neither is
// serialized (RestoreState rebuilds them).
class Tlb {
 public:
  explicit Tlb(uint32_t num_entries = 32);

  uint32_t capacity() const { return static_cast<uint32_t>(entries_.size()); }

  // Looks up vaddr for `asid`; returns the matching entry or nullptr. Updates
  // hit/miss statistics.
  const TlbEntry* Lookup(uint32_t vaddr, uint16_t asid) {
    const TlbEntry* entry = PeekLookup(vaddr, asid);
    ++(entry != nullptr ? stats_.hits : stats_.misses);
    return entry;
  }

  // Side-effect-free twin of Lookup for speculative fast paths
  // (Core::StepFast): identical match, no statistics. Lookup's only mutation
  // is the hit/miss counters (replacement state moves on Insert alone), so
  // PeekLookup + CreditHits for the committed hits is exactly equivalent.
  [[gnu::always_inline]] const TlbEntry* PeekLookup(uint32_t vaddr, uint16_t asid) const {
    const uint32_t slot = FindMatch(vaddr, asid);
    return slot != kNoSlot ? &entries_[slot] : nullptr;
  }

  // Replays hit counts committed against PeekLookup-based fast paths.
  void CreditHits(uint64_t n) { stats_.hits += n; }

  // Inserts a mapping (tlbwr). Replaces an existing entry for the same page
  // if present, else uses round-robin replacement.
  void Insert(uint32_t vaddr, uint32_t pte, uint16_t asid);

  // Probe without statistics (tlbrd): PTE or 0.
  uint32_t Probe(uint32_t vaddr, uint16_t asid) const {
    const TlbEntry* entry = PeekLookup(vaddr, asid);
    return entry != nullptr ? entry->pte : 0;
  }

  // Invalidates entries mapping vaddr under `asid` (global entries included).
  void InvalidateVaddr(uint32_t vaddr, uint16_t asid);

  // Invalidates all non-global entries with the given ASID.
  void FlushAsid(uint16_t asid);

  // Invalidates everything.
  void FlushAll();

  // Fault-injection port: rewrites the indexed entry's PTE as
  // (pte & and_mask) ^ xor_mask — silently corrupting permissions, the page
  // key or the frame number. `index` wraps modulo the capacity. Only valid
  // entries are affected; returns whether one was.
  bool CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask);

  // Number of valid entries (for tests).
  uint32_t ValidCount() const;

  // Checkpoint/restore (src/snap): entries, replacement pointer and counters.
  // Restore fails if the saved capacity differs.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  void RegisterMetrics(MetricRegistry& registry) const {
    registry.Register("tlb", "hits", &stats_.hits);
    registry.Register("tlb", "misses", &stats_.misses);
    registry.Register("tlb", "insertions", &stats_.insertions);
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // The bucket an entry of page number `vpn` and size `superpage` is
  // indexed under (Fibonacci hashing of the (vpn, size) key).
  uint32_t BucketOf(uint32_t vpn, bool superpage) const {
    return ((vpn << 1 | static_cast<uint32_t>(superpage)) * 0x9E3779B9u) >> bucket_shift_;
  }
  const uint64_t* BucketWords(uint32_t bucket) const { return index_.data() + bucket * words_; }

  // The one finder: the first slot, in ascending order, among those indexed
  // under `bucket_a` or `bucket_b` whose entry satisfies `match`; kNoSlot if
  // none. Only valid entries are indexed.
  template <typename Match>
  [[gnu::always_inline]] uint32_t FindSlot(uint32_t bucket_a, uint32_t bucket_b,
                                           Match match) const {
    const uint64_t* a = BucketWords(bucket_a);
    const uint64_t* b = BucketWords(bucket_b);
    for (uint32_t w = 0; w < words_; ++w) {
      for (uint64_t bits = a[w] | b[w]; bits != 0; bits &= bits - 1) {
        const uint32_t slot = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
        if (match(entries_[slot])) {
          return slot;
        }
      }
    }
    return kNoSlot;
  }

  // The slot whose entry translates vaddr for `asid` (Lookup's match).
  [[gnu::always_inline]] uint32_t FindMatch(uint32_t vaddr, uint16_t asid) const {
    return FindSlot(BucketOf(vaddr >> kPageShift, false), BucketOf(vaddr >> kSuperPageShift, true),
                    [vaddr, asid](const TlbEntry& entry) {
                      const uint32_t shift = entry.superpage() ? kSuperPageShift : kPageShift;
                      return (entry.global() || entry.asid == asid) &&
                             entry.vpn == (vaddr >> shift);
                    });
  }

  // Index maintenance: `slot` enters (its entry just became valid) or leaves
  // (its entry is about to become invalid or change key) the index.
  void IndexSlot(uint32_t slot);
  void UnindexSlot(uint32_t slot);
  // Marks `slot` invalid and drops it from the index; its fields stay, as
  // SaveState writes them.
  void Invalidate(uint32_t slot);
  // Rebuilds both bitmasks from the entry array.
  void Reindex();

  std::vector<TlbEntry> entries_;
  uint32_t next_victim_ = 0;
  TlbStats stats_;
  uint32_t words_;                // bitmask words per bucket: ceil(capacity / 64)
  uint32_t bucket_shift_;         // 32 - log2(bucket count)
  std::vector<uint64_t> index_;   // bucket-major slot bitmasks
  std::vector<uint64_t> free_;    // slot bitmask of invalid entries
};

}  // namespace msim

#endif  // MSIM_MMU_TLB_H_
