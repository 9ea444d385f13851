// Virtual-to-physical translation front-end.
//
// When paging is enabled (PGENABLE control register), every normal-mode
// fetch, load and store is translated through the TLB. Misses and violations
// become exceptions delivered to mroutines. Page-key checks consult the
// KEYPERM control register: 2 bits per key (read-allow, write-allow) for 16
// keys, allowing batch permission changes by rewriting a single register
// (paper §2.3, "Page Keys and Address Space IDs").
#ifndef MSIM_MMU_MMU_H_
#define MSIM_MMU_MMU_H_

#include <cstdint>

#include "cpu/trap.h"
#include "mmu/tlb.h"
#include "trace/trace.h"

namespace msim {

enum class AccessType { kFetch, kLoad, kStore };

struct TranslateResult {
  bool ok = false;
  uint32_t paddr = 0;
  ExcCause fault = ExcCause::kNone;
};

class Mmu {
 public:
  explicit Mmu(uint32_t tlb_entries = 32) : tlb_(tlb_entries) {}

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  // Translates vaddr. `keyperm` is the current KEYPERM register: bit (2*key)
  // allows reads/execute under the key, bit (2*key + 1) allows writes.
  TranslateResult Translate(uint32_t vaddr, AccessType type, uint16_t asid,
                            uint32_t keyperm) {
    const TlbEntry* entry = tlb_.Lookup(vaddr, asid);
    if (entry == nullptr) {
      if (tracer_ != nullptr) {
        tracer_->Emit(TraceEventKind::kTlbMiss, vaddr, static_cast<uint32_t>(type));
      }
      return Miss(type);
    }
    return ResolveEntry(*entry, vaddr, type, keyperm);
  }

  // Side-effect-free twin of Translate for speculative fast paths
  // (Core::StepFast, superblock memory slots): same outcome, but no TLB
  // hit/miss counting and no kTlbMiss trace event. A fast path that commits
  // a translation replays the hit via tlb().CreditHits; one that observes
  // !ok must fall back to the per-cycle machinery, whose Translate call then
  // counts the miss and emits the event. Always inline, down to the TLB
  // finder: a normal-mode trace probes once per memory slot.
  [[gnu::always_inline]] TranslateResult ProbeTranslate(uint32_t vaddr, AccessType type,
                                                        uint16_t asid, uint32_t keyperm) const {
    const TlbEntry* entry = tlb_.PeekLookup(vaddr, asid);
    if (entry == nullptr) {
      return Miss(type);
    }
    return ResolveEntry(*entry, vaddr, type, keyperm);
  }

  // Attaches the core's tracer; TLB misses emit kTlbMiss events.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  static TranslateResult Miss(AccessType type) {
    TranslateResult result;
    result.fault = type == AccessType::kFetch  ? ExcCause::kTlbMissFetch
                   : type == AccessType::kLoad ? ExcCause::kTlbMissLoad
                                               : ExcCause::kTlbMissStore;
    return result;
  }

  // Shared post-lookup half of Translate/ProbeTranslate: permission and
  // page-key checks plus frame math for a resident entry.
  [[gnu::always_inline]] static TranslateResult ResolveEntry(const TlbEntry& entry,
                                                             uint32_t vaddr, AccessType type,
                                                             uint32_t keyperm) {
    TranslateResult result;
    const uint32_t pte = entry.pte;
    const bool allowed = (type == AccessType::kFetch && (pte & kPteX) != 0) ||
                         (type == AccessType::kLoad && (pte & kPteR) != 0) ||
                         (type == AccessType::kStore && (pte & kPteW) != 0);
    if (!allowed) {
      result.fault = type == AccessType::kFetch  ? ExcCause::kPageFaultFetch
                     : type == AccessType::kLoad ? ExcCause::kPageFaultLoad
                                                 : ExcCause::kPageFaultStore;
      return result;
    }
    const uint32_t key = entry.key();
    const uint32_t key_bit = type == AccessType::kStore ? (2 * key + 1) : (2 * key);
    if (((keyperm >> key_bit) & 1u) == 0) {
      result.fault = ExcCause::kKeyViolation;
      return result;
    }
    if (entry.superpage()) {
      const uint32_t frame = pte & 0xFFC00000u;  // 4 MiB frame
      result.paddr = frame | (vaddr & 0x003FFFFFu);
    } else {
      const uint32_t frame = pte & 0xFFFFF000u;
      result.paddr = frame | (vaddr & 0x00000FFFu);
    }
    result.ok = true;
    return result;
  }

  Tlb tlb_;
  Tracer* tracer_ = nullptr;
};

}  // namespace msim

#endif  // MSIM_MMU_MMU_H_
