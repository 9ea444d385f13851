#include "cpu/superblock.h"

#include <optional>

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
// two differ. The icache probe is dynamic and runs at every trace entry
// instead (Core::StepFast).
bool FetchableVa(uint32_t addr) { return (addr & 3) == 0 && addr < kMmioBase; }

bool FetchablePa(uint32_t paddr, uint32_t dram_size) {
  return paddr < kMmioBase && paddr + 4 <= dram_size;
}

// Marks load slots whose successor reads the loaded register: dispatching
// one costs the per-cycle load-use stall plus a bubble, and the executor
// models exactly that (core.cc). Static because the dynamic StageId hazard
// check is a pure function of two adjacent instructions.
void ComputeStallAfter(std::vector<SbSlot>& slots, uint32_t exec_len) {
  for (uint32_t i = 0; i + 1 < exec_len; ++i) {
    SbSlot& slot = slots[i];
    slot.stall_after =
        slot.d.info().is_load && slot.d.rd != 0 && InstrReadsGpr(slots[i + 1].d, slot.d.rd);
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

// Records that the leading `checked` slots of `sb` match DRAM at `delta`
// under the pages' current stamps, or MRAM under its current generation.
void RecordChecked(Superblock& sb, uint32_t checked, uint32_t delta, const SbCode& code) {
  sb.checked = checked;
  sb.delta = delta;
  if (sb.metal) {
    sb.stamp[0] = code.mram.generation();
    return;
  }
  const uint32_t first = sb.start + delta;
  sb.page[0] = first >> PhysicalMemory::kPageBits;
  sb.page[1] = (first + 4 * (checked - 1)) >> PhysicalMemory::kPageBits;
  sb.stamp[0] = code.dram.page_stamp(sb.page[0]);
  sb.stamp[1] = code.dram.page_stamp(sb.page[1]);
}

// The raw word the trace slot at `addr` holds now: MRAM code (nullopt on a
// parity failure) for a Metal trace, DRAM at `addr + delta` otherwise.
std::optional<uint32_t> CodeWord(bool metal, uint32_t addr, uint32_t delta,
                                 const SbCode& code) {
  return metal ? code.mram.PeekCodeWord(addr) : code.dram.Read32(addr + delta);
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

uint32_t SuperblockCache::WalkSegment(uint32_t start, bool metal, const SbCode& code,
                                      uint32_t* delta) {
  scratch_.clear();
  uint32_t addr = start;
  // A trace spans at most one virtual-to-physical delta: the executor
  // translates the trace entry once (a consistent delta re-probed per page)
  // and fetches slot words at addr + delta, so a page run mapped with a
  // different offset ends the walk. Identity mapping when paging is off. A
  // Metal trace reads the MRAM code segment untranslated (delta 0).
  *delta = 0;
  bool have_delta = false;
  auto fetch = [&](uint32_t va) -> std::optional<uint32_t> {
    if (metal) {
      return code.mram.PeekCodeWord(va);
    }
    uint32_t pa = 0;
    if (!FetchableVa(va) || !code.as.Resolve(va, &pa) || !FetchablePa(pa, code.dram.size())) {
      return std::nullopt;
    }
    if (!have_delta) {
      *delta = pa - va;
      have_delta = true;
    }
    if (pa - va != *delta) {
      return std::nullopt;
    }
    return code.dram.Read32(pa);
  };
  while (scratch_.size() < kSuperblockMaxLen) {
    const auto word = fetch(addr);
    if (!word) {
      break;
    }
    const SbSlot slot = MakeSlot(*word, addr);
    if (!TraceSafeInstr(slot.d.kind, metal)) {
      break;
    }
    scratch_.push_back(slot);
    addr += 4;
    if (slot.d.info().is_jump) {
      break;
    }
  }
  const uint32_t exec_len = static_cast<uint32_t>(scratch_.size());
  if (exec_len < kSuperblockMinLen) {
    return 0;
  }
  // Fetch-only tail: the words the pipeline pulls speculatively while the
  // final slots execute (see Superblock::len). Two words even for a
  // jump-terminated trace: under a live load-use skid (depth 1) the
  // frontend runs one fetch ahead, reaching exec_len + 1 on the cycle
  // before the jump dispatches.
  for (uint32_t i = 0; i < 2; ++i) {
    const auto word = fetch(addr);
    if (!word) {
      break;
    }
    scratch_.push_back(MakeSlot(*word, addr));  // never dispatched
    addr += 4;
  }
  ComputeStallAfter(scratch_, exec_len);
  return exec_len;
}

bool SuperblockCache::Revalidate(Superblock& sb, uint32_t ready, uint32_t delta,
                                 const SbCode& code) {
  ++stats_.revalidations;
  for (uint32_t i = 0; i < ready; ++i) {
    const auto word = CodeWord(sb.metal, sb.slots[i].addr, delta, code);
    if (!word || *word != sb.slots[i].d.raw) {
      Invalidate(sb);
      return false;
    }
  }
  RecordChecked(sb, ready, delta, code);
  return true;
}

Superblock* SuperblockCache::Build(uint32_t start, bool metal, const SbCode& code) {
  if (traces_.empty()) {
    return nullptr;
  }
  uint32_t delta = 0;
  const uint32_t exec_len = WalkSegment(start, metal, code, &delta);
  if (exec_len == 0) {
    return nullptr;
  }
  Superblock& sb = traces_[Index(start)];
  if (sb.valid && sb.start != start) {
    ++stats_.evictions;
  }
  sb.valid = true;
  sb.metal = metal;
  sb.start = start;
  sb.exec_len = exec_len;
  sb.len = static_cast<uint32_t>(scratch_.size());
  sb.slots.assign(scratch_.begin(), scratch_.end());
  RecordChecked(sb, sb.len, delta, code);
  ++stats_.builds;
  return &sb;
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
                    "trace executions entered at a pipeline refill point or by "
                    "adopting a latched pipeline");
  registry.Register("superblock", "adoptions", &stats_.adoptions,
                    "trace executions entered from a non-empty pipeline");
  registry.Register("superblock", "cycles", &stats_.cycles,
                    "cycles committed by the trace tier, in both modes");
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
  registry.Register("superblock", "revalidations", &stats_.revalidations,
                    "trace entries that re-read code after a code page, the MRAM "
                    "generation or the translation moved");
  registry.Register("superblock", "metal_instructions", &stats_.metal_instructions,
                    "instructions retired inside Metal (MRAM) traces");
  registry.Register("superblock", "miss_freezes", &stats_.miss_freezes,
                    "dcache misses whose MEM stall stayed inside a trace");
#define MSIM_SB_REGISTER_REFUSAL(k, name, help)                                  \
  registry.Register("superblock", "refused_" #name,                              \
                    &stats_.refusals[static_cast<size_t>(SbRefusal::k)],         \
                    "tier entries refused: " help);
  MSIM_SB_REFUSALS(MSIM_SB_REGISTER_REFUSAL)
#undef MSIM_SB_REGISTER_REFUSAL
}

}  // namespace msim
