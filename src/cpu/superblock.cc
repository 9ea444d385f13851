#include "cpu/superblock.h"

#include "isa/decode.h"
#include "isa/semantics.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "mmu/mmu.h"
#include "snap/snapstream.h"

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
                                      const SbAddrSpace& as,
                                      std::vector<SbSlot>* slots) const {
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
  return exec_len;
}

Superblock* SuperblockCache::Build(uint32_t start, const PhysicalMemory& dram,
                                   const SbAddrSpace& as) {
  if (traces_.empty()) {
    return nullptr;
  }
  std::vector<SbSlot> slots;
  slots.reserve(16);
  const uint32_t exec_len = WalkSegment(start, dram, as, &slots);
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
  sb.len = static_cast<uint32_t>(slots.size());
  sb.slots = std::move(slots);
  sb.segs.clear();
  sb.segs.push_back(SbSegment{start, 0, exec_len, sb.len});
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
  if (sb.segs.size() - 1 >= kSuperblockMaxTrees ||
      sb.segs.size() >= kSuperblockMaxRestoreSegs ||
      sb.segs.size() > static_cast<uint32_t>(INT16_MAX)) {
    // Over budget: freeze the branch's counters so it never re-arms growth.
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  const uint32_t target = sb.slots[slot_index].target;
  const uint32_t before = static_cast<uint32_t>(sb.slots.size());
  // WalkSegment may reallocate sb.slots: no slot references survive it.
  const uint32_t exec_len = WalkSegment(target, dram, as, &sb.slots);
  if (exec_len == 0) {
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  const uint32_t seg_index = static_cast<uint32_t>(sb.segs.size());
  sb.segs.push_back(SbSegment{target, before, exec_len,
                              static_cast<uint32_t>(sb.slots.size()) - before});
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
}

void SuperblockCache::SaveState(SnapWriter& w) const {
  w.U32(kSuperblockSectionV2);
  w.U32(2);  // section format version
  uint32_t live = 0;
  for (const Superblock& sb : traces_) {
    live += sb.valid ? 1 : 0;
  }
  w.U32(live);
  for (const Superblock& sb : traces_) {
    if (!sb.valid) {
      continue;
    }
    w.U32(sb.start);
    w.U32(static_cast<uint32_t>(sb.segs.size()));
    for (const SbSegment& seg : sb.segs) {
      w.U32(seg.start);
      w.U32(seg.exec_len);
      w.U32(seg.len);
    }
    for (const SbSlot& slot : sb.slots) {
      w.U32(slot.d.raw);
    }
    for (const SbSlot& slot : sb.slots) {
      w.U32(static_cast<uint32_t>(static_cast<int32_t>(slot.taken_seg)));
      w.U32(slot.taken_n);
      w.U32(slot.nottaken_n);
    }
    w.U8(sb.grow_pending ? 1 : 0);
    w.U32(sb.grow_slot);
  }
  w.U64(stats_.builds);
  w.U64(stats_.executions);
  w.U64(stats_.chains);
  w.U64(stats_.instructions);
  w.U64(stats_.invalidations);
  w.U64(stats_.evictions);
  w.U64(stats_.mem_fast_hits);
  w.U64(stats_.mem_slow_exits);
  w.U64(stats_.tree_grows);
  w.U64(stats_.tree_transitions);
}

Status SuperblockCache::RestoreState(SnapReader& r) {
  for (Superblock& sb : traces_) {
    sb.valid = false;
  }
  const uint32_t sentinel = r.U32();
  if (!r.ok() || sentinel != kSuperblockSectionV2) {
    return InvalidArgument("superblock section: missing v2 sentinel");
  }
  const uint32_t version = r.U32();
  if (!r.ok() || version != 2) {
    return InvalidArgument("superblock section: unsupported version");
  }
  const uint32_t live = r.U32();
  if (!r.ok() || live > kSuperblockEntries) {
    return InvalidArgument("superblock section: bad trace count");
  }
  for (uint32_t i = 0; i < live; ++i) {
    const uint32_t start = r.U32();
    const uint32_t n_segs = r.U32();
    if (!r.ok() || n_segs == 0 || n_segs > kSuperblockMaxRestoreSegs) {
      return InvalidArgument("superblock section: bad segment count");
    }
    std::vector<SbSegment> segs;
    segs.reserve(n_segs);
    uint32_t total = 0;
    for (uint32_t s = 0; s < n_segs; ++s) {
      SbSegment seg;
      seg.start = r.U32();
      seg.exec_len = r.U32();
      seg.len = r.U32();
      seg.base = total;
      if (!r.ok() || seg.exec_len < kSuperblockMinLen || seg.len < seg.exec_len ||
          seg.len > seg.exec_len + 2 || seg.len > kSuperblockMaxRestoreLen ||
          (seg.start & 3) != 0) {
        return InvalidArgument("superblock section: bad segment geometry");
      }
      total += seg.len;
      segs.push_back(seg);
    }
    if (segs[0].start != start) {
      return InvalidArgument("superblock section: root segment mismatch");
    }
    std::vector<SbSlot> slots;
    slots.reserve(total);
    for (const SbSegment& seg : segs) {
      for (uint32_t j = 0; j < seg.len; ++j) {
        const SbSlot slot = MakeSlot(r.U32(), seg.start + 4 * j);
        if (j < seg.exec_len && !TraceSafeInstr(slot.d.kind)) {
          return InvalidArgument("superblock section: untranslatable slot");
        }
        slots.push_back(slot);
      }
    }
    for (uint32_t j = 0; j < total; ++j) {
      const int32_t ts = static_cast<int32_t>(r.U32());
      SbSlot& slot = slots[j];
      slot.taken_n = r.U32();
      slot.nottaken_n = r.U32();
      if (!r.ok() || ts < kSbSegNoGrow || ts >= static_cast<int32_t>(n_segs)) {
        return InvalidArgument("superblock section: bad tree link");
      }
      // A live link is only meaningful on a conditional-branch slot whose
      // taken edge actually lands at the segment start (the executor follows
      // it blind): reject anything else rather than execute a wrong tree.
      if (ts >= 1 &&
          (!slot.d.info().is_branch || segs[ts].start != slot.target)) {
        return InvalidArgument("superblock section: inconsistent tree link");
      }
      if (ts == 0) {
        return InvalidArgument("superblock section: link to root segment");
      }
      slot.taken_seg = static_cast<int16_t>(ts);
    }
    const bool grow_pending = r.U8() != 0;
    const uint32_t grow_slot = r.U32();
    if (!r.ok() || (grow_pending && grow_slot >= total)) {
      return InvalidArgument("superblock section: bad growth state");
    }
    for (const SbSegment& seg : segs) {
      ComputeStallAfter(slots, seg.base, seg.exec_len);
    }
    MSIM_RETURN_IF_ERROR(r.ToStatus("superblock trace"));
    if (traces_.empty()) {
      // Cache disabled in this core: drop the traces, keep the counters (the
      // executor never runs, so they stay frozen at their restored values).
      continue;
    }
    Superblock& sb = traces_[Index(start)];
    sb.valid = true;
    sb.start = start;
    sb.exec_len = segs[0].exec_len;
    sb.len = segs[0].len;
    sb.slots = std::move(slots);
    sb.segs = std::move(segs);
    sb.grow_pending = grow_pending;
    sb.grow_slot = grow_slot;
  }
  stats_.builds = r.U64();
  stats_.executions = r.U64();
  stats_.chains = r.U64();
  stats_.instructions = r.U64();
  stats_.invalidations = r.U64();
  stats_.evictions = r.U64();
  stats_.mem_fast_hits = r.U64();
  stats_.mem_slow_exits = r.U64();
  stats_.tree_grows = r.U64();
  stats_.tree_transitions = r.U64();
  return r.ToStatus("superblock counters");
}

}  // namespace msim
