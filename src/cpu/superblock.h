// Superblock translation tier: chained decoded traces, the one fast tier
// above per-cycle stepping (docs/performance.md).
//
// A superblock is a straight-line run of trace-safe instructions starting at
// a pipeline refill point (a branch target, a trap or intercept entry, or a
// cold entry) or at the oldest op of an adopted pipeline (such as the word
// after a menter/mexit splice), extended THROUGH not-taken conditional
// branches and terminated by an unconditional jump (jal/jalr), the first
// trace-unsafe or unfetchable word, the end of its code region, or
// kSuperblockMaxLen. A trace is of one mode: a normal-mode trace holds DRAM
// code, a Metal trace (Superblock::metal) holds mroutine code from the MRAM
// code segment, where the Metal-only kinds (MSIM_TRACE_KINDS) join it.
// Core::StepFast executes whole traces with a computed-goto inner loop over
// decoded slots, dispatching once per instruction instead of re-deciding
// branch direction and decode per cycle; a taken branch whose target starts
// another cached trace of the same mode chains directly into it.
//
// Instruction semantics live in one place for both tiers: register results,
// branch conditions and targets in isa/semantics.h, Metal-state effects in
// Core::ExecuteMetalOp, access widths and load signedness in InstrInfo
// (isa/instr_table.cc), and memory access and retirement in Core helpers
// shared with the per-cycle stages. The trace tier adds only
// MSIM_TRACE_KINDS below, the list of kinds it admits, so a new trace-safe
// kind of an existing class needs one row there.
//
// Beyond plain ALU/branch work, traces carry three more kinds of slot:
//   * Memory-op slots. Loads, stores and plw/psw join traces. A memory slot
//     takes the fast path when the access is DRAM-targeted (never MMIO) and,
//     for a translated access, TLB-resident with the required permission.
//     A dcache hit completes as a one-cycle pending MEM op at the top of the
//     next committed cycle (StageMem runs before StageEx). A dcache miss
//     stays in the trace too: it fills the line and holds MEM for the miss
//     latency, and the executor commits the frozen cycles in one step (the
//     first one still makes the skid-buffer fetch). Anything else exits the
//     trace uncommitted and replays through the per-cycle machinery. The
//     executor models load-use stall bubbles and the skid buffer the stall
//     leaves engaged, so N trace cycles stay byte-identical to N
//     Core::StepCycle calls.
//   * MRAM data slots (mld/mst, Metal traces only): a one-cycle pending op
//     against the MRAM data segment. A misaligned or out-of-range offset, or
//     an mld of a word that fails parity, exits uncommitted so the per-cycle
//     stages raise the fault or the machine check.
//   * Trace trees. Conditional branch slots carry taken/not-taken counters;
//     when a branch is observed strongly biased toward taken, the hot
//     successor is built as an additional SEGMENT of the same superblock
//     (SbSegment) and the branch links to it, so the taken edge replays
//     in-trace (the architectural two-cycle flush still happens — trees buy
//     immunity from trace-cache conflict eviction and skip the per-chain
//     cache lookup, not pipeline cycles). Growth is bounded by
//     kSuperblockMaxTrees and happens only outside the executor (slot
//     storage may reallocate).
//
// Byte-exactness is the contract: N cycles through a superblock leave
// machine state byte-identical to N Core::StepCycle calls (enforced by
// `msim replay --b-no-fast-step`, the mfuzz "faststep" oracle and the
// superblock_test digest matrices). Three mechanisms carry the contract:
//   * Entry guards. StepFast starts a trace on an empty pipeline (both
//     latches invalid, MEM and the fetch unit idle — the refill state), or
//     adopts latches that hold consecutive words of one ready trace segment
//     (a live MEM op becoming the trace's pending op), with no mode
//     transition or fetch in flight, no fault engine, machine check or armed
//     bus fault, and the device-event horizon ahead. Normal mode also needs
//     no armed intercept and no pending interrupt, every icache line
//     spanning the entered segment resident and — with paging on — a single
//     consistent virtual-to-physical delta for the segment's pages. Metal
//     mode needs MRAM-resident mroutines with a one-cycle fetch port, and
//     clamps its cycle budget to the watchdog's. The guards hold for a whole
//     StepFast call: a call runs traces of one mode only, memory slots never
//     reach MMIO, Metal traces never translate, and wcr (which moves paging,
//     interrupt enables and MRAM code) never joins a trace.
//   * Per-page validation. A normal-mode segment spans at most two physical
//     pages (kSuperblockMaxLen + 2 words) and records their
//     PhysicalMemory::page_stamp values, the translation delta and how many
//     leading slots were last compared against DRAM; a Metal segment
//     records Mram::generation() instead. Every segment entry (trace entry,
//     chain, tree transition) checks the stamps and the delta; only when one
//     moved does it re-read the ready prefix, and a changed word invalidates
//     the trace before any cycle commits (SuperblockCache::SegmentCurrent).
//     Fetches inside a segment do no per-word work.
//   * Stores into the running segment. A store whose page is one of the
//     running segment's code pages turns on the exact fetch check for the
//     rest of that segment: each fetch re-reads its word and merges a
//     store completing that cycle into it BEFORE the cycle commits, so
//     self-modifying code exits and invalidates exactly where a per-cycle
//     run would first fetch the new word. Any other store costs one page
//     compare. No store reaches MRAM code, so Metal segments never need it.
//
// Trace state is NOT architectural state and is never serialized: like
// CoreConfig::fast_step, the tier is invisible, snapshots stay portable
// across it, and a restored machine starts with a cold trace cache (Core
// invalidates it on restore). The tier's counters are host-tier metrics,
// so a restored or per-cycle run reports a different "superblock" component
// while every architectural counter matches.
#ifndef MSIM_CPU_SUPERBLOCK_H_
#define MSIM_CPU_SUPERBLOCK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "isa/decode.h"
#include "mem/mram.h"
#include "mem/phys_mem.h"
#include "trace/metrics.h"

namespace msim {

class Mmu;

// The trace-safe kinds: every instruction the superblock executor runs,
// each with the class of executor label it dispatches to (Core::StepFast):
//   Alu     rd <- AluResult (isa/semantics.h)
//   Nop     no architectural effect
//   Branch  BranchTaken, redirecting to the folded SbSlot::target
//   Jump    rd <- the AluResult link, redirecting to JumpTarget
//   Mem     DRAM load or store, width and extension from InstrInfo
//   Metal   Metal-state op, Core::ExecuteMetalOp
//   Mram    MRAM data-segment load or store (mld/mst)
// This list is the tier's only per-kind knowledge: it answers
// TraceSafeInstr and generates the executor's dispatch table and labels, so
// a kind of an existing class joins traces by adding its row. Kinds that
// are InstrInfo::metal_only join Metal traces only.
#define MSIM_TRACE_KINDS(X)                                                  \
  X(kLui, Alu) X(kAuipc, Alu) X(kJal, Jump) X(kJalr, Jump)                   \
  X(kBeq, Branch) X(kBne, Branch) X(kBlt, Branch) X(kBge, Branch)            \
  X(kBltu, Branch) X(kBgeu, Branch)                                          \
  X(kLb, Mem) X(kLh, Mem) X(kLw, Mem) X(kLbu, Mem) X(kLhu, Mem)              \
  X(kSb, Mem) X(kSh, Mem) X(kSw, Mem)                                        \
  X(kAddi, Alu) X(kSlti, Alu) X(kSltiu, Alu) X(kXori, Alu) X(kOri, Alu)      \
  X(kAndi, Alu) X(kSlli, Alu) X(kSrli, Alu) X(kSrai, Alu)                    \
  X(kAdd, Alu) X(kSub, Alu) X(kSll, Alu) X(kSlt, Alu) X(kSltu, Alu)          \
  X(kXor, Alu) X(kSrl, Alu) X(kSra, Alu) X(kOr, Alu) X(kAnd, Alu)            \
  X(kFence, Nop)                                                             \
  X(kMul, Alu) X(kMulh, Alu) X(kMulhsu, Alu) X(kMulhu, Alu)                  \
  X(kDiv, Alu) X(kDivu, Alu) X(kRem, Alu) X(kRemu, Alu)                      \
  X(kPlw, Mem) X(kPsw, Mem) X(kMld, Mram) X(kMst, Mram)                      \
  X(kRmr, Metal) X(kWmr, Metal) X(kRcr, Metal) X(kMopr, Metal)               \
  X(kMopw, Metal) X(kMintset, Metal) X(kTlbwr, Metal) X(kTlbinv, Metal)      \
  X(kTlbflush, Metal) X(kTlbrd, Metal)

// True for the kinds the superblock build walk admits (MSIM_TRACE_KINDS)
// into a trace of the given mode.
inline bool TraceSafeInstr(InstrKind kind, bool metal) {
  switch (kind) {
#define MSIM_TRACE_CASE(k, cls) case InstrKind::k:
    MSIM_TRACE_KINDS(MSIM_TRACE_CASE)
#undef MSIM_TRACE_CASE
      return metal || !GetInstrInfo(kind).metal_only;
    default:
      return false;
  }
}

// True if the decoded instruction reads GPR `reg`. This is the load-use
// hazard predicate StageId applies per cycle; the build walk applies it
// statically to mark load slots whose successor stalls (SbSlot::stall_after).
bool InstrReadsGpr(const Decoded& d, uint8_t reg);

// Branch-slot tree-link states (SbSlot::taken_seg).
inline constexpr int16_t kSbSegUnlinked = -1;  // counting; may still grow
inline constexpr int16_t kSbSegNoGrow = -2;    // growth tried/refused: stop counting

struct SbSlot {
  Decoded d;  // dispatched on d.kind; operands read from d
  // Load slot whose rd the NEXT slot reads: dispatching it costs the
  // load-use stall cycle plus a bubble, computed at build time (the dynamic
  // StageId check is a pure function of two adjacent slots).
  bool stall_after = false;
  // Conditional branches: segment index inlining the taken successor, or a
  // kSbSeg* state. Never 0 (the root segment is entered only via Lookup).
  int16_t taken_seg = kSbSegUnlinked;
  uint32_t taken_n = 0;     // taken-branch bias counters; frozen once linked
  uint32_t nottaken_n = 0;
  uint32_t target = 0;  // conditional branches: JumpTarget, folded at build
  uint32_t addr = 0;    // the word's virtual address within its segment;
                        // d.raw is revalidated per code page
};

// One straight-line run of a trace tree. Segment 0 is the root (the trace's
// only Lookup entry point); segments >= 1 are grown taken-branch successors
// entered exclusively through their linking branch slot's taken edge.
struct SbSegment {
  uint32_t start = 0;     // virtual address of the segment's first slot
  uint32_t base = 0;      // index of that slot in Superblock::slots
  uint32_t exec_len = 0;  // executable slots (>= kSuperblockMinLen)
  uint32_t len = 0;       // total slots including the fetch-only tail
  // Per-page validation state (SuperblockCache::SegmentCurrent): the
  // leading `checked` slots matched DRAM at virtual-to-physical delta
  // `delta` while physical pages page[0] and page[1] (equal for a one-page
  // run) carried stamps stamp[0] and stamp[1]. A Metal segment matched MRAM
  // while Mram::generation() was stamp[0] (delta and pages are 0).
  uint32_t checked = 0;
  uint32_t delta = 0;
  uint32_t page[2] = {0, 0};
  uint64_t stamp[2] = {0, 0};
};

struct Superblock {
  bool valid = false;
  bool metal = false;     // Metal trace: MRAM code, Metal-mode semantics
  uint32_t start = 0;     // root segment start; the only Lookup entry point
  uint32_t exec_len = 0;  // root segment executable slots (mirror of segs[0])
  // Root segment total slots including up to two trailing FETCH-ONLY slots:
  // the pipeline fetches two words past the last executable slot before a
  // terminal branch resolves (one speculative fall-through fetch per
  // unresolved stage), and recording those words lets the hot taken-branch
  // back edge of a loop execute fully in-trace. Fetch-only slots carry
  // addr/raw/d only; the executor exits before one would reach EX.
  uint32_t len = 0;
  // Flat slot storage for every segment (segs[i] spans
  // [segs[i].base, segs[i].base + segs[i].len)). Reallocates only outside
  // the executor (Build/MaybeGrow are never called while slot pointers are
  // live).
  std::vector<SbSlot> slots;
  std::vector<SbSegment> segs;
  // Deferred tree growth: a biased branch was observed at flat slot index
  // grow_slot; MaybeGrow (called at trace entry and chain points, never
  // inside a running segment) builds the successor segment.
  bool grow_pending = false;
  uint32_t grow_slot = 0;
};

// The StepFast entry guards that refuse a tier entry, each counted in
// SuperblockStats::refusals and reported as superblock.refused_<name>.
#define MSIM_SB_REFUSALS(X)                                                  \
  X(kFaultEngine, fault_engine, "a fault engine is attached")               \
  X(kMachineCheck, machine_check, "a machine check is being handled")       \
  X(kBusFault, bus_fault, "a bus fault is armed")                           \
  X(kLatency, latency, "cache or MRAM latency is not one cycle")            \
  X(kMetalStorage, metal_storage, "Metal code is not MRAM-resident")        \
  X(kWatchdog, watchdog, "the Metal watchdog budget is exhausted")          \
  X(kIntercept, intercept, "normal mode with an intercept armed")           \
  X(kInterrupt, interrupt, "normal mode with an interrupt pending")         \
  X(kPipeline, pipeline, "the latched pipeline is not a trace state")

enum class SbRefusal : uint8_t {
#define MSIM_SB_REFUSAL_ENUM(k, name, help) k,
  MSIM_SB_REFUSALS(MSIM_SB_REFUSAL_ENUM)
#undef MSIM_SB_REFUSAL_ENUM
  kCount
};

struct SuperblockStats {
  uint64_t builds = 0;         // traces constructed (build walk succeeded)
  uint64_t executions = 0;     // trace entries: refill points and adopted pipelines
  uint64_t adoptions = 0;      // the part of `executions` entered from a non-empty pipeline
  uint64_t cycles = 0;         // cycles committed by the trace tier, in both modes
  uint64_t chains = 0;         // taken branches that chained trace-to-trace
  uint64_t instructions = 0;   // instructions retired inside traces
  uint64_t invalidations = 0;  // traces killed (stale raw word, InvalidateAll)
  uint64_t evictions = 0;      // builds that overwrote a different live trace
  // Rung 2: memory-slot attribution (--stats-json; bench/CI regression
  // triage distinguishes "memory ops ran fast" from "memory ops threw the
  // trace out").
  uint64_t mem_fast_hits = 0;   // memory slots dispatched on the fast path
  uint64_t mem_slow_exits = 0;  // trace exits forced by a slow-path memory op
  uint64_t tree_grows = 0;        // successor segments built
  uint64_t tree_transitions = 0;  // taken branches that stayed in-trace via a segment
  uint64_t revalidations = 0;  // segment entries that re-read code (stamp or delta moved)
  uint64_t metal_instructions = 0;  // the part of `instructions` retired in Metal traces
  uint64_t miss_freezes = 0;        // dcache misses whose MEM stall stayed in-trace
  // StepFast calls refused at an entry guard, by guard (SbRefusal).
  std::array<uint64_t, static_cast<size_t>(SbRefusal::kCount)> refusals{};
};

// Fetch-address resolver for the build walk and segment entry: maps a
// virtual word address to the physical address raw words live at. Identity
// when mmu is null (paging off). Pure: never counts, never traces.
struct SbAddrSpace {
  const Mmu* mmu = nullptr;
  uint16_t asid = 0;
  uint32_t keyperm = 0;
  // False on TLB miss / permission or key failure; *paddr untouched.
  bool Resolve(uint32_t vaddr, uint32_t* paddr) const;
};

// Where the build walk and segment validation read raw code words: DRAM
// through `as` for normal-mode traces, the MRAM code segment
// (Mram::PeekCodeWord, untranslated) for Metal traces.
struct SbCode {
  const PhysicalMemory& dram;
  const Mram& mram;
  SbAddrSpace as;
};

// Direct-mapped trace cache, indexed by start address. Deterministic by
// construction: build-on-first-miss with overwrite eviction and
// entry-point-only growth, so cache contents are a pure function of the
// execution history since the last load or restore.
class SuperblockCache {
 public:
  // Geometry is fixed (kSuperblockEntries); `enabled` off constructs an
  // empty cache that Lookup/Build treat as permanently cold.
  explicit SuperblockCache(bool enabled);

  bool enabled() const { return !traces_.empty(); }

  // Trace lookup for `pc` in the given mode; never returns a trace of the
  // other mode. No counters are touched: executions/chains are counted by
  // the executor, which may still reject the trace (icache lines not
  // resident).
  Superblock* Lookup(uint32_t pc, bool metal) {
    if (traces_.empty()) {
      return nullptr;
    }
    Superblock& sb = traces_[Index(pc)];
    return (sb.valid && sb.start == pc && sb.metal == metal) ? &sb : nullptr;
  }

  // Builds, caches and returns the trace of the given mode starting at
  // `start`, or nullptr if no trace of at least kSuperblockMinLen trace-safe
  // instructions exists there. A Metal trace starts and stays in the MRAM
  // code segment, a normal-mode trace in DRAM. The walk is side-effect-free
  // on machine state: raw words come from PhysicalMemory::Read32 through
  // `code.as` (current translation; a single consistent delta per segment)
  // or from Mram::PeekCodeWord, and the segment records the page stamps or
  // the MRAM generation it read them under. A failed walk stops at the
  // first offending word — re-probing an unsafe target costs O(1) decodes.
  Superblock* Build(uint32_t start, bool metal, const SbCode& code);

  // Applies a pending tree growth: builds the successor segment at the
  // biased branch's target and links the branch to it. Bounded by
  // kSuperblockMaxTrees grown segments per trace; a refused or failed growth
  // marks the branch kSbSegNoGrow so it is never retried. Reallocates
  // sb.slots — must not be called while executor slot pointers are live.
  void MaybeGrow(Superblock& sb, const SbCode& code);

  // Segment-entry validation: true if the leading `ready` slots of `seg`
  // (a segment of `sb`) still hold the words DRAM has at `delta`, or MRAM
  // has for a Metal trace. Free while the recorded delta and page stamps
  // (MRAM generation) hold and `ready` is within the checked prefix;
  // otherwise re-reads the prefix, counts a revalidation and records the
  // current stamps. A changed or unreadable word invalidates `sb` and
  // returns false.
  bool SegmentCurrent(Superblock& sb, SbSegment& seg, uint32_t ready, uint32_t delta,
                      const SbCode& code) {
    if (ready <= seg.checked && delta == seg.delta &&
        (sb.metal ? code.mram.generation() == seg.stamp[0]
                  : code.dram.page_stamp(seg.page[0]) == seg.stamp[0] &&
                        code.dram.page_stamp(seg.page[1]) == seg.stamp[1])) [[likely]] {
      return true;
    }
    return Revalidate(sb, seg, ready, delta, code);
  }

  // Kills one stale trace (a raw word no longer matches DRAM).
  void Invalidate(Superblock& sb) {
    sb.valid = false;
    ++stats_.invalidations;
  }

  // Kills every trace (program load, snapshot restore). Counts one
  // invalidation only when at least one live trace died, which keeps the
  // counter identical across stepping modes (a run that never built a trace
  // reports 0, whichever mode ran).
  void InvalidateAll();

  // Executor counter ports (Core::StepFast).
  void CountExecution() { ++stats_.executions; }
  void CountAdoption() {
    ++stats_.executions;
    ++stats_.adoptions;
  }
  void CountCycles(uint64_t n) { stats_.cycles += n; }
  void CountChain() { ++stats_.chains; }
  void CountTreeTransition() { ++stats_.tree_transitions; }
  void CountMemFastHit() { ++stats_.mem_fast_hits; }
  void CountMemSlowExit() { ++stats_.mem_slow_exits; }
  void CountMissFreeze() { ++stats_.miss_freezes; }
  void CountRefusal(SbRefusal guard) { ++stats_.refusals[static_cast<size_t>(guard)]; }
  void CreditInstructions(uint64_t n, bool metal) {
    stats_.instructions += n;
    if (metal) {
      stats_.metal_instructions += n;
    }
  }

  const SuperblockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SuperblockStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;

 private:
  uint32_t Index(uint32_t addr) const { return (addr >> 2) & mask_; }

  // Shared straight-line walk for Build (root segment) and MaybeGrow
  // (successor segments): appends the run starting at `start` to `slots`,
  // returning the executable length (0 if shorter than kSuperblockMinLen).
  // Fills in `seg`'s validation state for its first `checked` slots.
  uint32_t WalkSegment(uint32_t start, bool metal, const SbCode& code,
                       std::vector<SbSlot>* slots, SbSegment* seg) const;
  bool Revalidate(Superblock& sb, SbSegment& seg, uint32_t ready, uint32_t delta,
                  const SbCode& code);

  std::vector<Superblock> traces_;
  uint32_t mask_ = 0;
  // Build's walk buffer, kept so a walk that finds no trace allocates nothing.
  std::vector<SbSlot> scratch_;
  SuperblockStats stats_;
};

// Cache geometry.
inline constexpr uint32_t kSuperblockEntries = 1024;
// Refilling the two pipeline latches costs two in-trace cycles before the
// first slot reaches EX, so a shorter trace could never execute anything.
inline constexpr uint32_t kSuperblockMinLen = 2;
// Maximum executable instructions per trace segment. With the two-word
// fetch-only tail a segment spans at most 66 words, so at most two pages.
inline constexpr uint32_t kSuperblockMaxLen = 64;
// Maximum tree segments grown past strongly biased conditional branches,
// per trace.
inline constexpr uint32_t kSuperblockMaxTrees = 8;
// Bias threshold: a branch grows its taken successor once taken at least
// this often AND at least 8x more often than not taken.
inline constexpr uint32_t kSbGrowMinTaken = 16;

}  // namespace msim

#endif  // MSIM_CPU_SUPERBLOCK_H_
