// Superblock translation tier: chained decoded traces, the one fast tier
// above per-cycle stepping (docs/performance.md).
//
// A superblock is a straight-line run of trace-safe DRAM instructions
// starting at a pipeline refill point (a branch target or a cold entry),
// extended THROUGH not-taken conditional branches and terminated by an
// unconditional jump (jal/jalr), the first trace-unsafe or unfetchable
// word, the DRAM/MMIO segment boundary, or kSuperblockMaxLen.
// Core::StepFast executes whole traces with a computed-goto inner loop over
// predecoded slots, dispatching once per instruction instead of re-deciding
// branch direction and decode per cycle; a taken branch whose target starts
// another cached trace chains directly into it.
//
// Instruction semantics live in one place for both tiers: register results,
// branch conditions and targets in isa/semantics.h, access widths and load
// signedness in InstrInfo (isa/instr_table.cc), and DRAM access and
// retirement in Core helpers shared with the per-cycle stages. The trace
// tier adds only MSIM_TRACE_KINDS below, the list of kinds it admits, so a
// new trace-safe kind of an existing class needs one row there.
//
// Beyond plain ALU/branch work, traces carry two more kinds of slot:
//   * Memory-op slots. lw/lh/lhu/lb/lbu/sw/sh/sb join traces. At execution
//     time a memory slot takes the fast path only when the access is
//     TLB-resident with the required permission (paging on), a dcache hit,
//     and DRAM-targeted (never MRAM or device MMIO); anything else exits the
//     trace uncommitted and replays through the per-cycle machinery. The
//     executor models the MEM stage as a one-cycle pending op completed at
//     the top of the next committed cycle (StageMem runs before StageEx),
//     including load-use stall bubbles and the fetch skid buffer the stall
//     leaves engaged, so N trace cycles stay byte-identical to N
//     Core::StepCycle calls.
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
// superblock_test digest matrix). Three mechanisms carry the contract:
//   * Entry guards. StepFast starts a trace only on an empty pipeline (both
//     latches invalid, MEM and the fetch unit idle — the refill state) with
//     no fault engine, not Metal, no pending interrupt, and the device-event
//     horizon ahead; it also requires every icache line spanning the
//     entered segment resident and — with paging on — a single consistent
//     virtual-to-physical delta for the segment's pages. The horizon stays
//     valid across a whole trace because device state is MMIO-only and
//     memory slots are DRAM-only.
//   * Per-page validation. Each segment spans at most two physical pages
//     (kSuperblockMaxLen + 2 words) and records their
//     PhysicalMemory::page_stamp values, the translation delta and how many
//     leading slots were last compared against DRAM. Every segment entry
//     (trace entry, chain, tree transition) checks the stamps and the delta;
//     only when one moved does it re-read the ready prefix, and a changed
//     word invalidates the trace before any cycle commits
//     (SuperblockCache::SegmentCurrent). Fetches inside a segment do no
//     per-word work.
//   * Stores into the running segment. A store whose page is one of the
//     running segment's code pages turns on the exact fetch check for the
//     rest of that segment: each fetch re-reads its word and merges a
//     pending store into it BEFORE the cycle commits, so self-modifying
//     code exits and invalidates exactly where a per-cycle run would first
//     fetch the new word. Any other store costs one page compare.
//
// Trace state is NOT architectural state and is never serialized: like
// CoreConfig::fast_step, the tier is invisible, snapshots stay portable
// across it, and a restored machine starts with a cold trace cache (Core
// invalidates it on restore). The tier's counters are host-tier metrics,
// so a restored or per-cycle run reports different "superblock" (and
// "predecode") components while every architectural counter matches.
#ifndef MSIM_CPU_SUPERBLOCK_H_
#define MSIM_CPU_SUPERBLOCK_H_

#include <cstdint>
#include <vector>

#include "isa/decode.h"
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
// This list is the tier's only per-kind knowledge: it answers
// TraceSafeInstr and generates the executor's dispatch table and labels, so
// a kind of an existing class joins traces by adding its row.
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
  X(kDiv, Alu) X(kDivu, Alu) X(kRem, Alu) X(kRemu, Alu)

// True for the kinds the superblock build walk admits (MSIM_TRACE_KINDS).
constexpr bool TraceSafeInstr(InstrKind kind) {
  switch (kind) {
#define MSIM_TRACE_CASE(k, cls) case InstrKind::k:
    MSIM_TRACE_KINDS(MSIM_TRACE_CASE)
#undef MSIM_TRACE_CASE
      return true;
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
  // run) carried stamps stamp[0] and stamp[1].
  uint32_t checked = 0;
  uint32_t delta = 0;
  uint32_t page[2] = {0, 0};
  uint64_t stamp[2] = {0, 0};
};

struct Superblock {
  bool valid = false;
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

struct SuperblockStats {
  uint64_t builds = 0;         // traces constructed (build walk succeeded)
  uint64_t executions = 0;     // trace entries at a pipeline refill point
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
  uint64_t revalidations = 0;  // segment entries that re-read DRAM (stamp or delta moved)
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

  // Trace lookup for `pc`. No counters are touched: executions/chains are
  // counted by the executor, which may still reject the trace (icache lines
  // not resident).
  Superblock* Lookup(uint32_t pc) {
    if (traces_.empty()) {
      return nullptr;
    }
    Superblock& sb = traces_[Index(pc)];
    return (sb.valid && sb.start == pc) ? &sb : nullptr;
  }

  // Builds, caches and returns the trace starting at `start`, or nullptr if
  // no trace of at least kSuperblockMinLen trace-safe instructions exists
  // there. The walk is side-effect-free on machine state: raw words come
  // from PhysicalMemory::Read32 through `as` (current translation; a single
  // consistent delta per segment), and the segment records the stamps of
  // the pages it read them from. A failed walk stops at the first offending
  // word — re-probing an unsafe target costs O(1) decodes.
  Superblock* Build(uint32_t start, const PhysicalMemory& dram, const SbAddrSpace& as);

  // Applies a pending tree growth: builds the successor segment at the
  // biased branch's target and links the branch to it. Bounded by
  // kSuperblockMaxTrees grown segments per trace; a refused or failed growth
  // marks the branch kSbSegNoGrow so it is never retried. Reallocates
  // sb.slots — must not be called while executor slot pointers are live.
  void MaybeGrow(Superblock& sb, const PhysicalMemory& dram, const SbAddrSpace& as);

  // Segment-entry validation: true if the leading `ready` slots of `seg`
  // (a segment of `sb`) still hold the words DRAM has at `delta`. Free
  // while the recorded delta and page stamps hold and `ready` is within the
  // checked prefix; otherwise re-reads the prefix, counts a revalidation
  // and records the current stamps. A changed or unreadable word
  // invalidates `sb` and returns false.
  bool SegmentCurrent(Superblock& sb, SbSegment& seg, uint32_t ready, uint32_t delta,
                      const PhysicalMemory& dram) {
    if (ready <= seg.checked && delta == seg.delta &&
        dram.page_stamp(seg.page[0]) == seg.stamp[0] &&
        dram.page_stamp(seg.page[1]) == seg.stamp[1]) [[likely]] {
      return true;
    }
    return Revalidate(sb, seg, ready, delta, dram);
  }

  // Kills one stale trace (a raw word no longer matches DRAM).
  void Invalidate(Superblock& sb) {
    sb.valid = false;
    ++stats_.invalidations;
  }

  // Kills every trace (program load, snapshot restore). Counts one
  // invalidation only when at least one live trace died: unlike the
  // predecode cache this keeps the counter identical across stepping modes
  // (a run that never built a trace reports 0, whichever mode ran).
  void InvalidateAll();

  // Executor counter ports (Core::StepFast).
  void CountExecution() { ++stats_.executions; }
  void CountChain() { ++stats_.chains; }
  void CountTreeTransition() { ++stats_.tree_transitions; }
  void CountMemFastHit() { ++stats_.mem_fast_hits; }
  void CountMemSlowExit() { ++stats_.mem_slow_exits; }
  void CreditInstructions(uint64_t n) { stats_.instructions += n; }

  const SuperblockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SuperblockStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;

 private:
  uint32_t Index(uint32_t addr) const { return (addr >> 2) & mask_; }

  // Shared straight-line walk for Build (root segment) and MaybeGrow
  // (successor segments): appends the run starting at `start` to `slots`,
  // returning the executable length (0 if shorter than kSuperblockMinLen).
  // Fills in `seg`'s validation state for its first `checked` slots.
  uint32_t WalkSegment(uint32_t start, const PhysicalMemory& dram, const SbAddrSpace& as,
                       std::vector<SbSlot>* slots, SbSegment* seg) const;
  bool Revalidate(Superblock& sb, SbSegment& seg, uint32_t ready, uint32_t delta,
                  const PhysicalMemory& dram);

  std::vector<Superblock> traces_;
  uint32_t mask_ = 0;
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
