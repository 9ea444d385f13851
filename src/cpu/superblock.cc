#include "cpu/superblock.h"

#include "isa/decode.h"
#include "isa/semantics.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "mmu/mmu.h"

namespace msim {

bool InstrReadsGpr(const Decoded& d, uint8_t reg) {
  if (reg == 0) {
    return false;
  }
  switch (d.kind) {
    // No GPR sources.
    case InstrKind::kLui:
    case InstrKind::kAuipc:
    case InstrKind::kJal:
    case InstrKind::kEcall:
    case InstrKind::kEbreak:
    case InstrKind::kFence:
    case InstrKind::kMenter:
    case InstrKind::kMexit:
    case InstrKind::kRmr:
    case InstrKind::kRcr:
    case InstrKind::kMopr:
      return false;
    // rs1 only.
    case InstrKind::kJalr:
    case InstrKind::kWmr:
    case InstrKind::kWcr:
    case InstrKind::kMopw:
    case InstrKind::kTlbinv:
    case InstrKind::kTlbflush:
    case InstrKind::kTlbrd:
    case InstrKind::kHalt:
    case InstrKind::kMld:
    case InstrKind::kPlw:
      return d.rs1 == reg;
    // rs1 + rs2.
    case InstrKind::kMst:
    case InstrKind::kPsw:
    case InstrKind::kTlbwr:
    case InstrKind::kMintset:
      return d.rs1 == reg || d.rs2 == reg;
    default:
      break;
  }
  switch (d.info().format) {
    case InstrFormat::kR:
    case InstrFormat::kS:
    case InstrFormat::kB:
      return d.rs1 == reg || d.rs2 == reg;
    case InstrFormat::kI:
      return d.rs1 == reg;
    default:
      return false;
  }
}

namespace {

// A word the fetch unit could pull speculatively: aligned and below the MMIO
// aperture (which also excludes the MRAM code range at 0xFFFF0000). Physical
// bounds are checked separately on the RESOLVED address — with paging on the
// two differ. The icache probe is dynamic and runs at every segment entry
// instead (Core::StepFast).
bool FetchableVa(uint32_t addr) { return (addr & 3) == 0 && addr < kMmioBase; }

bool FetchablePa(uint32_t paddr, uint32_t dram_size) {
  return paddr < kMmioBase && paddr + 4 <= dram_size;
}

// Marks load slots whose successor reads the loaded register: dispatching
// one costs the per-cycle load-use stall plus a bubble, and the executor
// models exactly that (core.cc). Static because the dynamic StageId hazard
// check is a pure function of two adjacent instructions.
void ComputeStallAfter(std::vector<SbSlot>& slots, uint32_t base, uint32_t exec_len) {
  for (uint32_t i = 0; i + 1 < exec_len; ++i) {
    SbSlot& slot = slots[base + i];
    slot.stall_after = slot.d.info().is_load && slot.d.rd != 0 &&
                       InstrReadsGpr(slots[base + i + 1].d, slot.d.rd);
  }
}

// The slot for the word `raw` at virtual address `pc`, with a conditional
// branch's target folded.
SbSlot MakeSlot(uint32_t raw, uint32_t pc) {
  SbSlot slot;
  slot.d = DecodeInstr(raw);
  slot.addr = pc;
  if (slot.d.info().is_branch) {
    slot.target = JumpTarget(slot.d.kind, 0, static_cast<uint32_t>(slot.d.imm), pc);
  }
  return slot;
}

// Records that the leading `checked` slots of `seg` match DRAM at `delta`
// under the pages' current stamps.
void RecordChecked(SbSegment& seg, uint32_t checked, uint32_t delta,
                   const PhysicalMemory& dram) {
  const uint32_t first = seg.start + delta;
  seg.checked = checked;
  seg.delta = delta;
  seg.page[0] = first >> PhysicalMemory::kPageBits;
  seg.page[1] = (first + 4 * (checked - 1)) >> PhysicalMemory::kPageBits;
  seg.stamp[0] = dram.page_stamp(seg.page[0]);
  seg.stamp[1] = dram.page_stamp(seg.page[1]);
}

}  // namespace

bool SbAddrSpace::Resolve(uint32_t vaddr, uint32_t* paddr) const {
  if (mmu == nullptr) {
    *paddr = vaddr;
    return true;
  }
  const TranslateResult tr = mmu->ProbeTranslate(vaddr, AccessType::kFetch, asid, keyperm);
  if (!tr.ok) {
    return false;
  }
  *paddr = tr.paddr;
  return true;
}

SuperblockCache::SuperblockCache(bool enabled) {
  if (!enabled) {
    return;
  }
  traces_.resize(kSuperblockEntries);
  mask_ = kSuperblockEntries - 1;
}

uint32_t SuperblockCache::WalkSegment(uint32_t start, const PhysicalMemory& dram,
                                      const SbAddrSpace& as, std::vector<SbSlot>* slots,
                                      SbSegment* seg) const {
  const uint32_t base = static_cast<uint32_t>(slots->size());
  uint32_t addr = start;
  // A segment spans at most one virtual-to-physical delta: the executor
  // translates the segment entry once (a consistent delta re-probed per
  // page) and fetches slot words at addr + delta, so a page run mapped with
  // a different offset ends the walk. Identity mapping when paging is off.
  uint32_t delta = 0;
  bool have_delta = false;
  auto resolve = [&](uint32_t va, uint32_t* pa) {
    if (!FetchableVa(va) || !as.Resolve(va, pa) || !FetchablePa(*pa, dram.size())) {
      return false;
    }
    if (!have_delta) {
      delta = *pa - va;
      have_delta = true;
    }
    return *pa - va == delta;
  };
  while (slots->size() - base < kSuperblockMaxLen) {
    uint32_t pa = 0;
    if (!resolve(addr, &pa)) {
      break;
    }
    const auto word = dram.Read32(pa);
    if (!word) {
      break;
    }
    const SbSlot slot = MakeSlot(*word, addr);
    if (!TraceSafeInstr(slot.d.kind)) {
      break;
    }
    slots->push_back(slot);
    addr += 4;
    if (slot.d.info().is_jump) {
      break;
    }
  }
  const uint32_t exec_len = static_cast<uint32_t>(slots->size()) - base;
  if (exec_len < kSuperblockMinLen) {
    slots->resize(base);
    return 0;
  }
  // Fetch-only tail: the words the pipeline pulls speculatively while the
  // final slots execute (see Superblock::len). Two words even for a
  // jump-terminated segment: under a live load-use skid (depth 1) the
  // frontend runs one fetch ahead, reaching exec_len + 1 on the cycle
  // before the jump dispatches.
  for (uint32_t i = 0; i < 2; ++i) {
    uint32_t pa = 0;
    if (!resolve(addr, &pa)) {
      break;
    }
    const auto word = dram.Read32(pa);
    if (!word) {
      break;
    }
    slots->push_back(MakeSlot(*word, addr));  // never dispatched
    addr += 4;
  }
  ComputeStallAfter(*slots, base, exec_len);
  seg->start = start;
  seg->base = base;
  seg->exec_len = exec_len;
  seg->len = static_cast<uint32_t>(slots->size()) - base;
  RecordChecked(*seg, seg->len, delta, dram);
  return exec_len;
}

bool SuperblockCache::Revalidate(Superblock& sb, SbSegment& seg, uint32_t ready, uint32_t delta,
                                 const PhysicalMemory& dram) {
  ++stats_.revalidations;
  const SbSlot* slots = sb.slots.data() + seg.base;
  for (uint32_t i = 0; i < ready; ++i) {
    const auto word = dram.Read32(slots[i].addr + delta);
    if (!word || *word != slots[i].d.raw) {
      Invalidate(sb);
      return false;
    }
  }
  RecordChecked(seg, ready, delta, dram);
  return true;
}

Superblock* SuperblockCache::Build(uint32_t start, const PhysicalMemory& dram,
                                   const SbAddrSpace& as) {
  if (traces_.empty()) {
    return nullptr;
  }
  std::vector<SbSlot> slots;
  slots.reserve(16);
  SbSegment seg;
  const uint32_t exec_len = WalkSegment(start, dram, as, &slots, &seg);
  if (exec_len == 0) {
    return nullptr;
  }
  Superblock& sb = traces_[Index(start)];
  if (sb.valid && sb.start != start) {
    ++stats_.evictions;
  }
  sb.valid = true;
  sb.start = start;
  sb.exec_len = exec_len;
  sb.len = seg.len;
  sb.slots = std::move(slots);
  sb.segs.assign(1, seg);
  sb.grow_pending = false;
  sb.grow_slot = 0;
  ++stats_.builds;
  return &sb;
}

void SuperblockCache::MaybeGrow(Superblock& sb, const PhysicalMemory& dram,
                                const SbAddrSpace& as) {
  if (!sb.grow_pending) {
    return;
  }
  sb.grow_pending = false;
  const uint32_t slot_index = sb.grow_slot;
  if (slot_index >= sb.slots.size() ||
      sb.slots[slot_index].taken_seg != kSbSegUnlinked) {
    return;
  }
  if (sb.segs.size() - 1 >= kSuperblockMaxTrees) {
    // Over budget: freeze the branch's counters so it never re-arms growth.
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  // WalkSegment may reallocate sb.slots: no slot references survive it.
  SbSegment seg;
  if (WalkSegment(sb.slots[slot_index].target, dram, as, &sb.slots, &seg) == 0) {
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  const uint32_t seg_index = static_cast<uint32_t>(sb.segs.size());
  sb.segs.push_back(seg);
  sb.slots[slot_index].taken_seg = static_cast<int16_t>(seg_index);
  ++stats_.tree_grows;
}

void SuperblockCache::InvalidateAll() {
  bool any = false;
  for (Superblock& sb : traces_) {
    any |= sb.valid;
    sb.valid = false;
  }
  if (any) {
    ++stats_.invalidations;
  }
}

void SuperblockCache::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("superblock", "builds", &stats_.builds,
                    "superblock traces constructed");
  registry.Register("superblock", "executions", &stats_.executions,
                    "trace executions entered at a pipeline refill point");
  registry.Register("superblock", "chains", &stats_.chains,
                    "taken branches chained directly into a cached trace");
  registry.Register("superblock", "instructions", &stats_.instructions,
                    "instructions retired inside superblock traces");
  registry.Register("superblock", "invalidations", &stats_.invalidations,
                    "traces killed by stale raw words or InvalidateAll");
  registry.Register("superblock", "evictions", &stats_.evictions,
                    "builds that overwrote a different live trace");
  registry.Register("superblock", "mem_fast_hits", &stats_.mem_fast_hits,
                    "memory slots dispatched on the in-trace fast path");
  registry.Register("superblock", "mem_slow_exits", &stats_.mem_slow_exits,
                    "trace exits forced by a slow-path memory op");
  registry.Register("superblock", "tree_grows", &stats_.tree_grows,
                    "biased-branch successor segments built");
  registry.Register("superblock", "tree_transitions", &stats_.tree_transitions,
                    "taken branches that stayed in-trace via a tree segment");
  registry.Register("superblock", "revalidations", &stats_.revalidations,
                    "segment entries that re-read DRAM after a code page or translation moved");
}

}  // namespace msim
