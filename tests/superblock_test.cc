// Superblock translation tier (cpu/superblock.h, docs/performance.md).
//
// The tier is "invisible by construction": N cycles through chained trace
// execution must leave machine state byte-identical to N Core::StepCycle
// calls. The tests mirror faststep_test.cc's structure —
// digest matrices at awkward sync points, an invalidation matrix against
// every coherence source, and snapshot round trips — with the superblock
// cache's own counters checked on the side so none of the parity checks can
// pass vacuously with the tier disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "cpu/superblock.h"
#include "ext/cpt.h"
#include "ext/stm.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/exit_codes.h"
#include "support/rng.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"

namespace msim {
namespace {

struct Retire {
  uint64_t cycle;
  uint32_t pc;
  uint32_t raw;
  bool metal;
  bool operator==(const Retire& o) const {
    return cycle == o.cycle && pc == o.pc && raw == o.raw && metal == o.metal;
  }
};

void RecordRetires(Core& core, std::vector<Retire>* out) {
  core.SetRetireTrace([out](const Core::RetireEvent& e) {
    out->push_back(Retire{e.cycle, e.pc, e.raw, e.metal});
  });
}

void ExpectSameRetires(const std::vector<Retire>& a, const std::vector<Retire>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "retire " << i << ": cycle " << a[i].cycle << " pc 0x"
                              << std::hex << a[i].pc << " raw 0x" << a[i].raw
                              << " vs cycle " << std::dec << b[i].cycle << " pc 0x"
                              << std::hex << b[i].pc << " raw 0x" << b[i].raw;
    if (!(a[i] == b[i])) {
      return;  // the first divergence is the informative one
    }
  }
}

// Identical geometry everywhere so SaveState streams (and digests) compare;
// only the stepping mode under test varies.
CoreConfig PerCycleConfig() {
  CoreConfig config;
  config.fast_step = false;
  return config;
}

// ALU/branch loops interleaved with loads and stores: traces build over the
// inner loop, chain on its back edge, and exit at every memory access.
constexpr const char* kMixedProgram = R"(
  _start:
    la s2, counter
    li s0, 400
    li s1, 0
  outer:
    li t0, 9
  inner:
    addi s1, s1, 3
    xor s1, s1, t0
    addi t0, t0, -1
    bne t0, zero, inner
    lw t1, 0(s2)
    addi t1, t1, 1
    sw t1, 0(s2)
    addi s0, s0, -1
    bne s0, zero, outer
    lw a0, 0(s2)
    halt a0
    .data
  counter:
    .word 0
)";

// ---------------------------------------------------------------------------
// Byte-exactness against the per-cycle reference.
// ---------------------------------------------------------------------------

TEST(SuperblockTest, ByteExactAgainstPerCycleAtManySyncPoints) {
  Core traced;  // defaults: fast_step on
  Core percycle(PerCycleConfig());
  const Program program = MustAssemble(kMixedProgram);
  for (Core* core : {&traced, &percycle}) {
    ASSERT_OK(core->LoadProgram(program));
  }
  std::vector<Retire> a, c;
  RecordRetires(traced, &a);
  RecordRetires(percycle, &c);

  // Deliberately awkward chunk sizes so sync points land mid-trace, on
  // chained back edges and inside the two-cycle refill. fast_step does not
  // join CoreConfigHash, so the digests are comparable.
  const uint64_t kChunks[] = {1, 2, 3, 7, 64, 129, 1000, 4096, 977, 50000};
  uint64_t at = 0;
  for (const uint64_t chunk : kChunks) {
    traced.Run(chunk);
    percycle.Run(chunk);
    at += chunk;
    ASSERT_EQ(traced.cycle(), percycle.cycle()) << "after " << at << " cycles";
    ASSERT_EQ(traced.StateDigest(/*include_dram=*/true),
              percycle.StateDigest(/*include_dram=*/true))
        << "trace tier diverged from per-cycle by cycle " << at;
  }
  const RunResult rt = traced.Run(2'000'000);
  const RunResult rp = percycle.Run(2'000'000);
  EXPECT_EQ(rt.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rp.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rt.exit_code, rp.exit_code);
  EXPECT_EQ(traced.StateDigest(true), percycle.StateDigest(true));
  ExpectSameRetires(a, c);

  // The parity above actually exercised the tier: traces built, executed,
  // chained on the inner loop's back edge, and retired the bulk of the run.
  const SuperblockStats& stats = traced.superblocks().stats();
  EXPECT_GT(stats.builds, 0u);
  EXPECT_GT(stats.executions, 0u);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_LE(stats.instructions, traced.stats().instret);
  // And the control core never ran it.
  EXPECT_EQ(percycle.superblocks().stats().executions, 0u);
}

// Each MSIM_TRACE_KINDS row's executor class agrees with the kind's
// InstrInfo, which the per-cycle pipeline dispatches on: MRAM data accesses
// (mld/mst, the two loads/stores of the custom-0 opcode) are Mram, other
// loads/stores Mem, and the remaining Metal-only kinds Metal. Metal-only
// kinds join Metal traces only.
TEST(SuperblockTest, TraceKindClassesMatchInstrInfo) {
  auto expect_class = [](InstrKind kind, std::string_view cls) {
    const InstrInfo& info = GetInstrInfo(kind);
    const bool memory = info.is_load || info.is_store;
    const std::string_view want = memory && info.opcode == kOpMetal ? "Mram"
                                  : memory                          ? "Mem"
                                  : info.metal_only                 ? "Metal"
                                  : info.is_branch                  ? "Branch"
                                  : info.is_jump                    ? "Jump"
                                  : info.writes_rd                  ? "Alu"
                                                                    : "Nop";
    EXPECT_EQ(cls, want) << info.mnemonic;
    EXPECT_TRUE(TraceSafeInstr(kind, /*metal=*/true)) << info.mnemonic;
    EXPECT_EQ(TraceSafeInstr(kind, /*metal=*/false), !info.metal_only) << info.mnemonic;
  };
#define MSIM_EXPECT_CLASS(k, cls) expect_class(InstrKind::k, #cls);
  MSIM_TRACE_KINDS(MSIM_EXPECT_CLASS)
#undef MSIM_EXPECT_CLASS
}

// Counts timer interrupts in MRAM data[0] (same handler as interrupt_test).
constexpr const char* kTimerHandler = R"(
    .mentry 1, irq
  irq:
    wmr m10, t0
    wmr m11, t1
    mld t0, 0(zero)
    addi t0, t0, 1
    mst t0, 0(zero)
    li t0, 0xF0000008
    li t1, 1
    psw t1, 0(t0)
    rmr t0, m10
    rmr t1, m11
    mexit
)";

TEST(SuperblockTest, ByteExactWithTimerInterruptsAcrossHorizons) {
  // Horizon audit regression: a chained trace must never commit a cycle at
  // or past the device-event horizon computed at StepFast entry, so every
  // interrupt is taken at exactly the cycle the per-cycle core takes it.
  auto boot = [](Core& core) {
    MustLoadMcodeRaw(core, kTimerHandler);
    ASSERT_OK(core.LoadProgram(MustAssemble(R"(
      _start:
        li t2, 30000
      loop:
        addi t2, t2, -1
        bne t2, zero, loop
        halt zero
    )")));
    core.metal().DelegateIrq(1);
    core.metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    core.timer().Write32(12, 700);  // interval
    core.timer().Write32(4, 700);   // compare
    core.timer().Write32(8, 1);     // enable
  };
  Core traced;
  Core percycle(PerCycleConfig());
  boot(traced);
  boot(percycle);

  const uint64_t kChunks[] = {500, 333, 1024, 10000, 50000};
  for (const uint64_t chunk : kChunks) {
    traced.Run(chunk);
    percycle.Run(chunk);
    ASSERT_EQ(traced.cycle(), percycle.cycle());
    ASSERT_EQ(traced.StateDigest(true), percycle.StateDigest(true))
        << "diverged by cycle " << traced.cycle();
  }
  const RunResult rt = traced.Run(2'000'000);
  const RunResult rp = percycle.Run(2'000'000);
  EXPECT_EQ(rt.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rp.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(traced.stats().interrupts, percycle.stats().interrupts);
  EXPECT_GE(traced.stats().interrupts, 10u);
  EXPECT_EQ(traced.StateDigest(true), percycle.StateDigest(true));
  EXPECT_GT(traced.superblocks().stats().chains, 0u);
}

// A loop body of 150 straight-line instructions: longer than one trace.
std::string LongStraightLineProgram() {
  std::string source = "_start:\n  li s0, 20\nloop:\n";
  for (int i = 0; i < 150; ++i) {
    source += "  addi a0, a0, 1\n";
  }
  source += "  addi s0, s0, -1\n  bnez s0, loop\n  halt a0\n";
  return source;
}

TEST(SuperblockTest, SegmentsAreBoundedByMaxLen) {
  // The build walk stops at kSuperblockMaxLen executable slots; the rest of
  // the body runs per cycle after the trace exits, byte-exact as ever.
  Core traced;
  Core percycle(PerCycleConfig());
  const Program program = MustAssemble(LongStraightLineProgram());
  std::vector<Retire> a, b;
  RecordRetires(traced, &a);
  RecordRetires(percycle, &b);
  for (Core* core : {&traced, &percycle}) {
    ASSERT_OK(core->LoadProgram(program));
    MustHalt(*core, 20 * 150);
  }
  ExpectSameRetires(a, b);
  const Superblock* sb = traced.superblocks().Lookup(program.symbols.at("loop"), /*metal=*/false);
  ASSERT_NE(sb, nullptr);
  // One run per trace: the executable slots plus at most the two-word
  // fetch-only tail, all in `slots`.
  EXPECT_EQ(sb->exec_len, kSuperblockMaxLen);
  EXPECT_LE(sb->len, kSuperblockMaxLen + 2);
  EXPECT_EQ(sb->slots.size(), sb->len);
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
}

// ---------------------------------------------------------------------------
// Invalidation matrix: every coherence source vs a no-trace reference.
// ---------------------------------------------------------------------------

// Patches its own inner loop after three iterations: the stored word must
// take effect on the very next fetch, killing the trace built over it.
constexpr const char* kSelfModifyingProgram = R"(
  _start:
    la t0, slot
    la t1, patch
    lw t1, 0(t1)
    li s0, 6
    li s1, 0
  loop:
  slot:
    addi s1, s1, 1
    addi s0, s0, -1
    beq s0, zero, done
    li t2, 3
    bne s0, t2, loop
    sw t1, 0(t0)
    j loop
  done:
    halt s1
  patch:
    addi s1, s1, 5
)";

TEST(SuperblockInvalidationTest, SelfModifyingStoreKillsAffectedTrace) {
  Core traced;  // defaults
  Core percycle(PerCycleConfig());
  ASSERT_OK(traced.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  ASSERT_OK(percycle.LoadProgram(MustAssemble(kSelfModifyingProgram)));
  std::vector<Retire> a, b;
  RecordRetires(traced, &a);
  RecordRetires(percycle, &b);
  // 3 iterations of +1, then the patched +5 for the remaining 3.
  MustHalt(traced, 18);
  MustHalt(percycle, 18);
  ExpectSameRetires(a, b);
  // The store bumped the DRAM write generation; the per-fetch raw-word
  // revalidation must have caught the stale slot and killed its trace.
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
  EXPECT_GT(traced.superblocks().stats().invalidations, 0u);
}

// A store *inside* the straight line that targets a word a couple of slots
// AHEAD of it in the same trace. With rung-2 memory slots the sw executes on
// the trace fast path as a pending MemOp; the very next trace fetch of the
// patched word must see the store's bytes (the pending-store fetch-merge
// path), detect the raw-word mismatch, and exit + invalidate before the
// cycle commits. The branch warms the trace first so the store really does
// land mid-trace, not on a cold build.
constexpr const char* kStoreAheadProgram = R"(
  _start:
    la t0, target
    la t1, patch
    lw t1, 0(t1)
    li s0, 8
    li s1, 0
  loop:
    addi s1, s1, 1
    li t2, 4
    bne s0, t2, target
    sw t1, 0(t0)
  target:
    addi s1, s1, 2
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
  patch:
    addi s1, s1, 9
)";

TEST(SuperblockInvalidationTest, StoreIntoExecutingTraceAheadOfPcIsByteExact) {
  Core traced;  // defaults
  Core percycle(PerCycleConfig());
  const Program program = MustAssemble(kStoreAheadProgram);
  std::vector<Retire> a, c;
  RecordRetires(traced, &a);
  RecordRetires(percycle, &c);
  std::vector<RunResult> results;
  for (Core* core : {&traced, &percycle}) {
    ASSERT_OK(core->LoadProgram(program));
    results.push_back(core->Run(100000));
  }
  // The per-cycle machine defines whether the patched word is visible on the
  // patching iteration itself; the tier must agree byte-for-byte rather
  // than match a hand-computed constant.
  for (const RunResult& r : results) {
    EXPECT_EQ(r.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(r.exit_code, results[0].exit_code);
  }
  ExpectSameRetires(a, c);
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
  EXPECT_GT(traced.superblocks().stats().mem_fast_hits, 0u);
  EXPECT_GT(traced.superblocks().stats().invalidations, 0u);
}

// TLB eviction between trace executions: an mroutine drops the data page's
// mapping, so the next trace entry reaches its lw slot with ProbeTranslate
// missing — the memory slot must force a slow exit (uncommitted) and replay
// per-cycle, where the architectural TLB miss fires and the delegated
// handler refills. Byte-exact against the per-cycle reference.
constexpr const char* kTlbEvictMcode = R"(
    .mentry 10, tlb_miss
  tlb_miss:
    rcr t0, 2            # MBADVADDR
    li t1, -4096
    and t1, t0, t1       # frame = page base (identity)
    ori t1, t1, 0x38     # R|W|X
    tlbwr t0, t1
    mexit                # retry the faulting access
    .mentry 11, evict
  evict:
    tlbinv t0            # caller leaves the vaddr to evict in t0
    mexit
)";

constexpr const char* kTlbEvictProgram = R"(
  _start:
    la t6, buf
    li s0, 120
    li s1, 0
  loop:
    li t3, 6
  spin:
    lw t1, 0(t6)
    addi t1, t1, 1
    sw t1, 0(t6)
    addi s1, s1, 1
    addi t3, t3, -1
    bne t3, zero, spin
    mv t0, t6
    menter 11            # evict the data page mid-run
    addi s0, s0, -1
    bne s0, zero, loop
    lw a0, 0(t6)
    halt a0
    .data
  buf:
    .word 0
)";

TEST(SuperblockInvalidationTest, TlbEvictionForcesMidTraceSlowExit) {
  MetalSystem traced;
  MetalSystem percycle(PerCycleConfig());
  std::vector<Retire> a, c;
  std::vector<Retire>* streams[] = {&a, &c};
  MetalSystem* systems[] = {&traced, &percycle};
  std::vector<RunResult> results;
  for (int i = 0; i < 2; ++i) {
    MetalSystem& s = *systems[i];
    s.AddMcode(kTlbEvictMcode);
    ASSERT_OK(s.LoadProgramSource(kTlbEvictProgram));
    ASSERT_OK(s.Boot());
    Core& core = s.core();
    core.metal().Delegate(ExcCause::kTlbMissLoad, 10);
    core.metal().Delegate(ExcCause::kTlbMissStore, 10);
    core.metal().Delegate(ExcCause::kTlbMissFetch, 10);
    core.metal().WriteCreg(kCrPgEnable, 1);
    RecordRetires(core, streams[i]);
    results.push_back(s.Run(5'000'000));
  }
  for (const RunResult& r : results) {
    EXPECT_EQ(r.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(r.exit_code, results[0].exit_code);
  }
  ExpectSameRetires(a, c);
  // The hot spin loop's memory slots ran the fast path between evictions and
  // hit the missing-translation slow exit right after each one.
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
  EXPECT_GT(traced.core().superblocks().stats().mem_fast_hits, 0u);
  EXPECT_GT(traced.core().superblocks().stats().mem_slow_exits, 0u);
}

// Accumulates into MRAM data with mld/mst (same mroutine as faststep_test):
// MRAM activity alongside hot DRAM traces.
constexpr const char* kCounterMcode = R"(
    .mentry 1, count_add
  count_add:
    mld t0, 0(zero)
    add t0, t0, a0
    mst t0, 0(zero)
    mv a0, t0
    mexit
)";

// The spin loop keeps a hot DRAM trace alive between mroutine invocations
// (the taken back edge drains the pipeline, so the tier builds and chains
// there); `menter` itself is never part of a trace.
constexpr const char* kLongCounterProgram = R"(
  _start:
    li s0, 400
    li s1, 0
  loop:
    li t3, 8
  spin:
    addi t3, t3, -1
    bne t3, zero, spin
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

TEST(SuperblockInvalidationTest, MramScrubMatchesNoTraceReference) {
  // The mroutine is straight-line and entered by decode-stage replacement,
  // so it never refills the pipeline and never runs as a Metal trace: a
  // corruption-scrub episode in it must leave the DRAM traces untouched AND
  // the retire streams identical with and without the tier.
  CoreConfig traced_config;
  traced_config.mram_parity = false;
  CoreConfig percycle_config = PerCycleConfig();
  percycle_config.mram_parity = false;
  MetalSystem traced(traced_config);
  MetalSystem percycle(percycle_config);
  for (MetalSystem* s : {&traced, &percycle}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
    ASSERT_OK(s->Boot());
  }
  std::vector<Retire> a, b;
  RecordRetires(traced.core(), &a);
  RecordRetires(percycle.core(), &b);
  auto drive = [](MetalSystem& s) -> RunResult {
    s.Run(1500);
    // Flip `add t0, t0, a0` (second mroutine word) into `sub`.
    EXPECT_TRUE(s.core().mram().CorruptCodeWord(4, 0xFFFFFFFFu, 1u << 30));
    s.Run(1500);
    EXPECT_GT(s.core().mram().Scrub(), 0u);  // restores + bumps MRAM gen
    return s.Run(2'000'000);
  };
  const RunResult ra = drive(traced);
  const RunResult rb = drive(percycle);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rb.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  ExpectSameRetires(a, b);
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
}

TEST(SuperblockInvalidationTest, FaultEngineAttachDisablesTraceExecution) {
  // An attached fault engine can flip any word at any cycle, behind every
  // generation counter. StepFast refuses to start in that case, so no trace
  // ever runs. Regression for the entry guard: the
  // counters must stay zero and behavior must match the per-cycle reference.
  MetalSystem traced;  // defaults: fast_step on
  MetalSystem reference(PerCycleConfig());
  FaultEngine traced_engine(/*seed=*/7);
  FaultEngine reference_engine(/*seed=*/7);
  ASSERT_OK(traced_engine.AddSpec("mram-data@3000:at=0,bit=3"));
  ASSERT_OK(reference_engine.AddSpec("mram-data@3000:at=0,bit=3"));
  traced.core().SetFaultEngine(&traced_engine);
  reference.core().SetFaultEngine(&reference_engine);
  for (MetalSystem* s : {&traced, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kLongCounterProgram));
  }
  std::vector<Retire> a, b;
  RecordRetires(traced.core(), &a);
  RecordRetires(reference.core(), &b);
  const RunResult ra = traced.Run(2'000'000);
  const RunResult rb = reference.Run(2'000'000);
  EXPECT_EQ(ra.reason, rb.reason);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  ExpectSameRetires(a, b);
  EXPECT_EQ(traced.core().superblocks().stats().executions, 0u);
  EXPECT_EQ(traced.core().superblocks().stats().builds, 0u);
}

// ---------------------------------------------------------------------------
// Per-page validation: trace entries check code-page stamps, and re-read
// DRAM only when a stamp or the translation moved.
// ---------------------------------------------------------------------------

// Boots a traced and a per-cycle MetalSystem of `config` with `setup`, runs
// both in `chunks`, comparing StateDigest(true) after every chunk, then runs
// both to the end and compares the outcome and the retire streams.
// `between(core, i)` runs on both cores after chunk i (host pokes). Returns
// the traced core's superblock counters, and its core counters through
// `core_stats` when set.
SuperblockStats RunAgainstPerCycle(const CoreConfig& config,
                                   const std::function<void(MetalSystem&)>& setup,
                                   const std::vector<uint64_t>& chunks,
                                   const std::function<void(Core&, size_t)>& between = {},
                                   CoreStats* core_stats = nullptr) {
  CoreConfig percycle_config = config;
  percycle_config.fast_step = false;
  MetalSystem traced(config);
  MetalSystem percycle(percycle_config);
  std::vector<Retire> a, b;
  for (MetalSystem* s : {&traced, &percycle}) {
    setup(*s);
    if (!s->booted()) {
      EXPECT_OK(s->Boot());
    }
  }
  RecordRetires(traced.core(), &a);
  RecordRetires(percycle.core(), &b);
  for (size_t i = 0; i < chunks.size(); ++i) {
    for (MetalSystem* s : {&traced, &percycle}) {
      s->core().Run(chunks[i]);
      if (between) {
        between(s->core(), i);
      }
    }
    EXPECT_EQ(traced.core().cycle(), percycle.core().cycle());
    EXPECT_EQ(traced.core().StateDigest(true), percycle.core().StateDigest(true))
        << "trace tier diverged from per-cycle by cycle " << traced.core().cycle()
        << " (chunk " << i << ")";
  }
  const RunResult rt = traced.core().Run(5'000'000);
  const RunResult rp = percycle.core().Run(5'000'000);
  EXPECT_EQ(rt.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rp.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rt.exit_code, rp.exit_code);
  EXPECT_EQ(traced.core().StateDigest(true), percycle.core().StateDigest(true));
  ExpectSameRetires(a, b);
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
  EXPECT_EQ(percycle.core().superblocks().stats().executions, 0u);
  if (core_stats != nullptr) {
    *core_stats = traced.core().stats();
  }
  return traced.core().superblocks().stats();
}

// The same for a plain `program` on default cores.
SuperblockStats RunAgainstPerCycle(const Program& program, const std::vector<uint64_t>& chunks,
                                   const std::function<void(Core&, size_t)>& between = {}) {
  return RunAgainstPerCycle(
      CoreConfig{}, [&](MetalSystem& s) { ASSERT_OK(s.LoadProgram(program)); }, chunks,
      between);
}

// A hot loop whose code page also holds a data word (`spare`).
constexpr const char* kPokeProgram = R"(
  _start:
    li s0, 3000
    li s1, 0
  loop:
  slot:
    addi s1, s1, 1
    addi s1, s1, 2
    addi s0, s0, -1
    bnez s0, loop
    halt s1
    .word 0               # with `halt`, the trace's fetch-only tail
  spare:
    .word 0
  patch:
    addi s1, s1, 7
)";

TEST(SuperblockPageValidationTest, HostPokeIntoCodePageRevalidatesAndKillsTrace) {
  const Program program = MustAssemble(kPokeProgram);
  const uint32_t spare = program.symbols.at("spare");
  const uint32_t slot = program.symbols.at("slot");
  const uint32_t patch = program.symbols.at("patch");
  const SuperblockStats stats = RunAgainstPerCycle(
      program, {500, 500, 500}, [&](Core& core, size_t chunk) {
        PhysicalMemory& dram = core.bus().dram();
        if (chunk == 0) {
          // Same page, no trace word: the trace re-reads DRAM and survives.
          ASSERT_TRUE(dram.Write32(spare, 0x12345678));
        } else if (chunk == 1) {
          if (core.config().fast_step) {
            EXPECT_GT(core.superblocks().stats().revalidations, 0u);
            EXPECT_EQ(core.superblocks().stats().invalidations, 0u);
          }
          // A word of the cached trace: it must die before running it.
          ASSERT_TRUE(dram.Write32(slot, *dram.Read32(patch)));
        }
      });
  EXPECT_GT(stats.revalidations, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

// Trace `a_store` stores into the page of trace `b_entry`, then chains into
// it. The stored word equals B's own until s0 reaches 10, so B revalidates
// and survives on the early iterations and is killed by the patching one.
constexpr const char* kCrossTraceStoreProgram = R"(
  _start:
    la t0, bslot
    la t1, patch
    lw t1, 0(t1)
    lw t3, 0(t0)
    li s0, 30
    li s1, 0
    li t2, 10
    j a_loop
  patch:
    addi s1, s1, 7
    .org 0x1e00           # A near the end of its page ...
  a_loop:
    addi s0, s0, -1
    bne s0, t2, a_store
    mv t3, t1
  a_store:
    sw t3, 0(t0)
    j b_entry
    .org 0x2100           # ... B on the next one, in another icache set
  b_entry:
  bslot:
    addi s1, s1, 1
    addi s1, s1, 2
    bnez s0, a_loop
    halt s1
)";

TEST(SuperblockPageValidationTest, InTraceStoreToAnotherTracesPageThenChain) {
  const SuperblockStats stats =
      RunAgainstPerCycle(MustAssemble(kCrossTraceStoreProgram), {37, 101, 250});
  EXPECT_GT(stats.chains, 0u);
  EXPECT_GT(stats.mem_fast_hits, 0u);
  EXPECT_GT(stats.revalidations, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

// The taken `bnez s0, far` chains into the trace at `far`, on its own page.
// The `sw` just before the branch stores into that page on every iteration:
// the original word until s0 reaches 20, then the patch. The store lands in
// the branch cycle's MEM slice, before the chain validates `far`, so the
// chain sees the moved page stamp: `far` revalidates and survives on the
// early iterations and is killed by the patching one.
constexpr const char* kChainStoreProgram = R"(
  _start:
    la t0, tslot
    la t1, patch
    lw t1, 0(t1)
    lw t3, 0(t0)
    li s0, 60
    li s1, 0
    li t2, 20
    j loop
  patch:
    addi s1, s1, 7
    .org 0x1e00           # the loop near the end of its page ...
  loop:
    addi s0, s0, -1
    addi s1, s1, 1
    sw t3, 0(t0)
    bnez s0, far
    halt s1
    .org 0x2100           # ... `far` on the next one, in another icache set
  far:
  tslot:
    addi s1, s1, 1
    addi s1, s1, 2
    bne s0, t2, loop
    mv t3, t1
    j loop
)";

TEST(SuperblockPageValidationTest, StoreToChainTargetPageBeforeTakenChain) {
  // Odd chunk sizes make the executor exit and re-enter at changing points.
  const std::vector<uint64_t> chunks(80, 13);
  const SuperblockStats stats = RunAgainstPerCycle(MustAssemble(kChainStoreProgram), chunks);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_GT(stats.revalidations, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

// A store into the running trace, `distance` words ahead of itself, on the
// one iteration that falls through to it. From distance 3 on, the patched
// word is fetched in the very cycle the store completes (or later), so the
// exact fetch check must already be on when the store is latched.
std::string StoreAheadProgram(int distance) {
  std::string source = R"(
  _start:
    la t0, target
    la t1, patch
    lw t1, 0(t1)
    lw t3, 0(t0)          # warms the dcache line, so the sw runs in-trace
    li s0, 8
    li s1, 0
  loop:
    addi s1, s1, 1
    li t2, 4
    bne s0, t2, skip
    sw t1, 0(t0)
)";
  for (int i = 1; i < distance; ++i) {
    source += "    addi s1, s1, 1\n";
  }
  source += R"(
  target:
    addi s1, s1, 2
  skip:
    addi s0, s0, -1
    bnez s0, loop
    halt s1
  patch:
    addi s1, s1, 9
)";
  return source;
}

TEST(SuperblockPageValidationTest, StoreIntoRunningSegmentAtEveryFetchDistance) {
  for (int distance = 1; distance <= 6; ++distance) {
    SCOPED_TRACE("distance " + std::to_string(distance));
    const SuperblockStats stats =
        RunAgainstPerCycle(MustAssemble(StoreAheadProgram(distance)), {});
    EXPECT_GT(stats.mem_fast_hits, 0u);
    EXPECT_GT(stats.invalidations, 0u);
  }
}

// Loads and stores stay on the data page: no code-page stamp moves, so no
// trace entry ever re-reads DRAM.
constexpr const char* kDataOnlyStoreProgram = R"(
  _start:
    la t0, buf
    li s0, 500
  loop:
    lw t1, 0(t0)
    addi t1, t1, 3
    sw t1, 0(t0)
    sw s0, 4(t0)
    addi s0, s0, -1
    bnez s0, loop
    lw a0, 0(t0)
    halt a0
    .data
  buf:
    .word 0, 0
)";

TEST(SuperblockPageValidationTest, DataPageStoresNeverRevalidate) {
  const SuperblockStats stats =
      RunAgainstPerCycle(MustAssemble(kDataOnlyStoreProgram), {64, 129, 1000});
  EXPECT_GT(stats.mem_fast_hits, 0u);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_EQ(stats.revalidations, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

// ---------------------------------------------------------------------------
// Snapshots: restore parity and section round trips.
// ---------------------------------------------------------------------------

TEST(SuperblockSnapshotTest, RestoreMidLoopResumesIdentically) {
  // Core::SaveState deliberately excludes trace state (snapshots are
  // portable across stepping modes); restore invalidates the cache and the
  // tier rebuilds deterministically. The continuation retire stream of the
  // restored machine must equal the uninterrupted one — including into a
  // per-cycle core.
  Core original;  // defaults: fast_step on
  ASSERT_OK(original.LoadProgram(MustAssemble(kMixedProgram)));
  original.Run(1234);  // mid-loop, trace cache warm
  const std::vector<uint8_t> image = SaveSnapshot(original);
  const uint64_t digest_at_save = original.StateDigest(true);

  std::vector<Retire> rest_of_original;
  RecordRetires(original, &rest_of_original);
  const RunResult ro = original.Run(2'000'000);
  EXPECT_EQ(ro.reason, RunResult::Reason::kHalted);

  const auto resume = [&](const CoreConfig& config) {
    Core restored(config);
    ASSERT_OK(RestoreSnapshot(restored, image));
    EXPECT_EQ(restored.StateDigest(true), digest_at_save);
    std::vector<Retire> rest;
    RecordRetires(restored, &rest);
    const RunResult rr = restored.Run(2'000'000);
    EXPECT_EQ(rr.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(rr.exit_code, ro.exit_code);
    ExpectSameRetires(rest_of_original, rest);
  };
  resume(CoreConfig{});
  resume(PerCycleConfig());
}

// Every registered counter of `core` as one JSON string.
std::string MetricsJson(const Core& core) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  core.metrics().AppendJson(json);
  json.EndObject();
  return out.str();
}

TEST(SuperblockSnapshotTest, RestoreStartsHostCachesColdWithArchitecturalStatsIntact) {
  // The trace cache does not travel in a snapshot: the restored core starts
  // with no trace, and still ends with exactly the straight run's
  // architectural counters.
  Core straight;  // defaults: fast_step on
  const Program program = MustAssemble(kMixedProgram);
  ASSERT_OK(straight.LoadProgram(program));
  straight.Run(1234);
  ASSERT_GT(straight.superblocks().stats().builds, 0u);
  const std::vector<uint8_t> image = SaveSnapshot(straight);

  Core restored;
  ASSERT_OK(RestoreSnapshot(restored, image));
  for (const auto& [name, addr] : program.symbols) {
    EXPECT_EQ(restored.superblocks().Lookup(addr, /*metal=*/false), nullptr) << name;
  }
  EXPECT_EQ(restored.superblocks().stats().builds, 0u);

  const RunResult rs = straight.Run(2'000'000);
  const RunResult rr = restored.Run(2'000'000);
  EXPECT_EQ(rs.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rr.exit_code, rs.exit_code);
  EXPECT_EQ(restored.StateDigest(true), straight.StateDigest(true));
  EXPECT_EQ(WithoutHostTierMetrics(MetricsJson(restored)),
            WithoutHostTierMetrics(MetricsJson(straight)));
  EXPECT_GT(restored.superblocks().stats().executions, 0u);
}

// ---------------------------------------------------------------------------
// Metal traces and in-trace dcache misses: digest matrices against the
// per-cycle reference, with Run chunk sizes that cut frozen miss windows,
// trace entries and the two refill cycles.
// ---------------------------------------------------------------------------

// Chunk sizes around the 20-cycle DRAM latency and a mix of primes.
const std::vector<uint64_t> kMetalChunks = {1, 2, 3, 5, 19, 20, 21, 37, 400, 1, 977, 4096};

// The paper's STM (ext/stm.h): every load and store of a transaction is
// intercepted into tread/twrite, whose write-set search loops chain in MRAM,
// and tcommit validates and writes back with plw/psw. The transaction's own
// loop refills in normal mode with interception armed, which StepFast
// refuses.
constexpr const char* kStmLoop = R"(
    .equ A, 0x00600000
  _start:
    li s0, 150
  again:
    la a0, on_abort
    menter 24
    li t5, A
    li s1, 3
  rmw:
    lw t6, 0(t5)
    addi t6, t6, 1
    sw t6, 0(t5)
    addi t5, t5, 4
    addi s1, s1, -1
    bnez s1, rmw
    menter 27
    addi s0, s0, -1
    bnez s0, again
    li t5, A
    lw a0, 0(t5)
    halt a0
  on_abort:
    j again
)";

void SetUpStmLoop(MetalSystem& s) {
  ASSERT_OK(StmExtension::Install(s, /*clock_addr=*/0x00700000, /*vtbl_addr=*/0x00704000,
                                  /*vtbl_words=*/1024));
  ASSERT_OK(s.LoadProgramSource(kStmLoop));
}

TEST(MetalTraceTest, StmInterceptLoopMatchesPerCycle) {
  const SuperblockStats stats = RunAgainstPerCycle(CoreConfig{}, SetUpStmLoop, kMetalChunks);
  EXPECT_GT(stats.metal_instructions, 0u);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_GT(stats.miss_freezes, 0u);
  EXPECT_GT(stats.refusals[static_cast<size_t>(SbRefusal::kIntercept)], 0u);
}

// The custom page-table walker (ext/cpt.h) refills a 32-entry TLB over 48
// pages: each walk starts a Metal trace at the trap entry, and its PTE plw
// misses the dcache right before the load-use of the loaded entry. After
// each walk's mexit the retried lw misses too.
void SetUpPageTableGuest(MetalSystem& s) {
  ASSERT_OK(CustomPageTable::Install(s, 0));
  ASSERT_OK(s.LoadProgramSource(R"(
    _start:
      li s0, 4
    round:
      li s1, 48
      li s4, 0
    touch:
      slli t0, s4, 12
      li t1, 0x00800040
      add t0, t0, t1
      lw t2, 0(t0)
      addi t2, t2, 1
      sw t2, 0(t0)
      addi s4, s4, 7
      andi s4, s4, 63
      addi s1, s1, -1
      bnez s1, touch
      addi s0, s0, -1
      bnez s0, round
      halt t2
  )"));
  ASSERT_OK(s.Boot());
  Core& core = s.core();
  CustomPageTable cpt(core, 0x00400000, 0x00100000);
  const Result<uint32_t> root = cpt.CreateAddressSpace();
  ASSERT_TRUE(root.ok());
  for (uint32_t page = 0; page < 16; ++page) {
    ASSERT_OK(cpt.Map(*root, page * 4096, page * 4096, kPteR | kPteW | kPteX));
  }
  for (uint32_t page = 0; page < 64; ++page) {
    const uint32_t addr = 0x00800000 + page * 4096;
    ASSERT_OK(cpt.Map(*root, addr, addr, kPteR | kPteW));
  }
  ASSERT_OK(cpt.Activate(*root));
  core.metal().WriteCreg(kCrPgEnable, 1);
}

TEST(MetalTraceTest, PageTableWalkerMissFreezeMatchesPerCycle) {
  const SuperblockStats stats = RunAgainstPerCycle(CoreConfig{}, SetUpPageTableGuest, kMetalChunks);
  EXPECT_GT(stats.metal_instructions, 0u);
  EXPECT_GT(stats.miss_freezes, 0u);
}

// An mroutine loop at a refill point: the loop body (from `again`) is a
// Metal trace that its taken back edge chains into.
constexpr const char* kMramLoopMcode = R"(
    .mentry 1, accumulate
    .mentry 2, mcheck_recover
  accumulate:
    li t1, 12
  again:
    mld t0, 0(zero)
    add t0, t0, a0
    mst t0, 0(zero)
    rcr t2, 9             # cycle, low word
    rcr t3, 11            # instret, low word
    xor a1, a1, t2
    add a1, a1, t3
    addi t1, t1, -1
    bnez t1, again
    mv a0, t0
    mexit
  mcheck_recover:
    wcr 52, zero          # scrub the corrupted word
    li a0, 1
    mexit                 # resume after the aborted menter
)";

constexpr const char* kMramLoopProgram = R"(
  _start:
    li s0, 60
    li s1, 0
  loop:
    li a0, 3
    menter 1
    add s1, s1, a0
    xor s1, s1, a1
    addi s0, s0, -1
    bnez s0, loop
    halt s1
)";

void SetUpMramLoop(MetalSystem& s) {
  s.AddMcode(kMramLoopMcode);
  ASSERT_OK(s.LoadProgramSource(kMramLoopProgram));
  s.DelegateException(ExcCause::kMachineCheck, 2);
}

TEST(MetalTraceTest, RcrCycleAndInstretInsideTraceMatchPerCycle) {
  const SuperblockStats stats = RunAgainstPerCycle(CoreConfig{}, SetUpMramLoop, kMetalChunks);
  EXPECT_GT(stats.metal_instructions, 0u);
  EXPECT_GT(stats.chains, 0u);
}

TEST(MetalTraceTest, CorruptDataWordBeforeInTraceMldMachineChecksPerCycle) {
  // Corrupts the accumulator whenever a Run chunk ends between the loop's
  // mst and its back edge, so the next mld is the first slot of a Metal
  // trace: it exits uncommitted, and StepCycle raises the machine check.
  std::vector<uint64_t> chunks;
  for (int i = 0; i < 60; ++i) {
    chunks.push_back(std::vector<uint64_t>{7, 11, 13, 17, 23}[i % 5]);
  }
  uint32_t loop_body = 0;
  uint64_t machine_checks[2] = {0, 0};
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{},
      [&](MetalSystem& s) {
        SetUpMramLoop(s);
        ASSERT_OK(s.Boot());
        loop_body = *s.EntryAddress(1) + 4;  // `again`
      },
      chunks, [&](Core& core, size_t chunk) {
        const uint32_t fetch = core.fetch_pc();
        if (fetch >= loop_body + 16 && fetch <= loop_body + 28) {  // rcr .. bnez
          ASSERT_TRUE(core.mram().CorruptDataWord(0, 0xFFFFFFFFu, 1u << 4));
        }
        if (chunk + 1 == chunks.size()) {
          machine_checks[core.config().fast_step ? 0 : 1] = core.stats().machine_checks;
        }
      });
  EXPECT_GT(machine_checks[0], 0u);
  EXPECT_EQ(machine_checks[0], machine_checks[1]);
  EXPECT_GT(stats.metal_instructions, 0u);
  EXPECT_GT(stats.mem_slow_exits, 0u);  // the failing mld left the trace uncommitted
}

TEST(MetalTraceTest, HostCodeWritesBetweenRunsRevalidateAndKillMetalTraces) {
  uint32_t add_offset = 0;
  uint64_t revalidations_before_patch = 0;
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{},
      [&](MetalSystem& s) {
        SetUpMramLoop(s);
        ASSERT_OK(s.Boot());
        // `add t0, t0, a0`: two words past `accumulate`.
        add_offset = *s.EntryAddress(1) - kMramCodeBase + 8;
      },
      kMetalChunks, [&](Core& core, size_t chunk) {
        Mram& mram = core.mram();
        const uint32_t word = *mram.PeekCodeWord(kMramCodeBase + add_offset);
        if (chunk == 7) {
          // The same word: the trace re-reads MRAM and survives.
          ASSERT_TRUE(mram.WriteCodeWord(add_offset, word));
        } else if (chunk == 8) {
          if (core.config().fast_step) {
            revalidations_before_patch = core.superblocks().stats().revalidations;
            EXPECT_EQ(core.superblocks().stats().invalidations, 0u);
          }
          // `add` becomes `sub`: the cached trace must die before running.
          ASSERT_TRUE(mram.WriteCodeWord(add_offset, word | (1u << 30)));
        }
      });
  EXPECT_GT(revalidations_before_patch, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_GT(stats.metal_instructions, 0u);
}

// A runaway mroutine loop under the Metal watchdog: traces clamp their cycle
// budget to the watchdog's, so the machine check fires on exactly the
// per-cycle cycle, and the recovery mroutine returns to the program.
TEST(MetalTraceTest, WatchdogClampLandsOnTheFiringCycle) {
  CoreConfig config;
  config.metal_watchdog_cycles = 150;
  std::vector<uint64_t> chunks = {1, 2, 3, 5, 19, 20, 21, 37, 50, 1, 1, 1, 1, 1, 1};
  CoreStats core_stats;
  const SuperblockStats stats = RunAgainstPerCycle(
      config,
      [](MetalSystem& s) {
        s.AddMcode(R"(
            .mentry 1, spin
            .mentry 2, recover
          spin:
            li t1, 100000
          again:
            addi t1, t1, -1
            mld t0, 4(zero)
            addi t0, t0, 1
            mst t0, 4(zero)
            bnez t1, again
            mexit
          recover:
            mld a0, 4(zero)
            mexit
        )");
        ASSERT_OK(s.LoadProgramSource(R"(
          _start:
            li s0, 3
            li s1, 0
          loop:
            menter 1
            add s1, s1, a0
            addi s0, s0, -1
            bnez s0, loop
            halt s1
        )"));
        s.DelegateException(ExcCause::kMachineCheck, 2);
      },
      chunks, {}, &core_stats);
  EXPECT_EQ(core_stats.watchdog_fires, 3u);
  // Most of each 150-cycle budget ran in traces, up to the firing cycle.
  EXPECT_GT(stats.metal_instructions, 3 * 50u);
}

// A normal-mode loop whose loads all miss the dcache, with a periodic timer
// interrupt whose events cut some frozen miss windows: a window that would
// cross the horizon leaves the miss to StepCycle, so every interrupt is
// raised and taken on the per-cycle cycle. After chunk 10, the timer fires
// every 7 cycles with interrupts masked, so every window would span several
// fires that a single late tick would fold into one.
TEST(SuperblockMissFreezeTest, NormalModeMissFreezeCutByTimerHorizon) {
  auto setup = [](MetalSystem& s) {
    s.AddMcode(kTimerHandler);
    ASSERT_OK(s.LoadProgramSource(R"(
      _start:
        li s0, 300
        li s1, 0
        la t5, buf
      loop:
        lw t0, 0(t5)
        add s1, s1, t0
        lw t1, 64(t5)
        addi t1, t1, 1
        sw t1, 128(t5)
        addi t5, t5, 1024
        andi t6, s0, 15
        bnez t6, next
        la t5, buf
      next:
        addi s0, s0, -1
        bnez s0, loop
        halt s1
        .data
      buf:
        .word 1
    )"));
    s.DelegateInterrupts(1);
    ASSERT_OK(s.Boot());
    s.core().metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    s.core().timer().Write32(12, 97);  // interval
    s.core().timer().Write32(4, 97);   // compare
    s.core().timer().Write32(8, 1);    // enable
  };
  CoreStats core_stats;
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{}, setup, kMetalChunks,
      [](Core& core, size_t chunk) {
        if (chunk == 10) {
          core.metal().WriteCreg(kCrIenable, 0);
          core.timer().Write32(12, 7);
        }
      },
      &core_stats);
  EXPECT_GT(core_stats.interrupts, 10u);
  EXPECT_GT(stats.miss_freezes, 0u);
  EXPECT_GT(stats.mem_slow_exits, 0u);
}

// ---------------------------------------------------------------------------
// Live-pipeline entry: StepFast adopts latched pipelines (docs/performance.md,
// "Entry guards"), so traces resume after menter/mexit splices, resumed
// misses and at every Run boundary.
// ---------------------------------------------------------------------------

// Seeded Run chunks of 1 to 64 cycles around a stretch of Run(1) calls, so
// Run boundaries land on every pipeline phase.
std::vector<uint64_t> LiveEntryChunks(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> chunks;
  for (int i = 0; i < 80; ++i) {
    chunks.push_back(rng.Range(1, 64));
  }
  chunks.insert(chunks.end(), 300, 1);
  for (int i = 0; i < 80; ++i) {
    chunks.push_back(rng.Range(1, 64));
  }
  return chunks;
}

TEST(LivePipelineEntryTest, StmLoopMatchesPerCycleAtRandomChunks) {
  const SuperblockStats stats =
      RunAgainstPerCycle(CoreConfig{}, SetUpStmLoop, LiveEntryChunks(1));
  EXPECT_GT(stats.adoptions, 0u);
  EXPECT_GT(stats.metal_instructions, 0u);
}

TEST(LivePipelineEntryTest, PageTableWalkerMatchesPerCycleAtRandomChunks) {
  const SuperblockStats stats =
      RunAgainstPerCycle(CoreConfig{}, SetUpPageTableGuest, LiveEntryChunks(2));
  EXPECT_GT(stats.adoptions, 0u);
  EXPECT_GT(stats.miss_freezes, 0u);
}

TEST(LivePipelineEntryTest, NoopMroutineLoopMatchesPerCycleAtRandomChunks) {
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{},
      [](MetalSystem& s) {
        s.AddMcode(R"(
            .mentry 1, noop
          noop:
            mexit
        )");
        ASSERT_OK(s.LoadProgramSource(R"(
          _start:
            li t0, 400
            li a1, 0
          loop:
            menter 1
            addi a1, a1, 3
            xor a1, a1, t0
            addi t0, t0, -1
            bnez t0, loop
            halt a1
        )"));
      },
      LiveEntryChunks(3));
  EXPECT_GT(stats.adoptions, 0u);
}

TEST(LivePipelineEntryTest, MixedProgramMatchesPerCycleAtRandomChunks) {
  const SuperblockStats stats = RunAgainstPerCycle(MustAssemble(kMixedProgram), LiveEntryChunks(4));
  EXPECT_GT(stats.adoptions, 0u);
  EXPECT_GT(stats.chains, 0u);
}

// Steps `reference` per cycle until `reached` holds, and `adopter` (a
// fast_step machine driven through StepCycle, the per-cycle reference
// itself) in lockstep, so both stop on the same latched state.
void StepBothUntil(MetalSystem& adopter, MetalSystem& reference,
                   const std::function<bool(Core&)>& reached) {
  for (int i = 0; i < 100000 && !reached(reference.core()); ++i) {
    adopter.core().StepCycle();
    reference.core().StepCycle();
  }
  ASSERT_TRUE(reached(reference.core()));
  ASSERT_EQ(adopter.core().StateDigest(true), reference.core().StateDigest(true));
}

// A dcache miss dispatched per cycle, with a timer event in the middle of
// its frozen window: the adopted window commits up to the horizon, the
// firing cycle runs per cycle, and the rest of the window is adopted again.
// The interrupt is taken on the per-cycle cycle.
TEST(LivePipelineEntryTest, AdoptedMissWindowCutByTimerHorizon) {
  const auto boot = [](MetalSystem& s) {
    s.AddMcode(kTimerHandler);
    ASSERT_OK(s.LoadProgramSource(R"(
      _start:
        li s0, 40
        li s1, 0
        la t5, buf
      loop:
        lw t0, 0(t5)
        addi s2, s2, 1
        add s1, s1, t0
        addi t5, t5, 1024
        addi s0, s0, -1
        bnez s0, loop
        halt s1
        .data
      buf:
        .word 1
    )"));
    s.DelegateInterrupts(1);
    ASSERT_OK(s.Boot());
    s.core().metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
  };
  MetalSystem adopter;
  MetalSystem reference(PerCycleConfig());
  boot(adopter);
  boot(reference);
  std::vector<Retire> a, b;
  RecordRetires(adopter.core(), &a);
  RecordRetires(reference.core(), &b);
  StepBothUntil(adopter, reference,
                [](Core& core) { return core.dcache().stats().misses >= 2; });
  const uint64_t dispatch = reference.core().cycle();
  for (MetalSystem* s : {&adopter, &reference}) {
    s->core().timer().Write32(4, static_cast<uint32_t>(dispatch + 7));  // compare
    s->core().timer().Write32(8, 1);                                    // enable
  }
  const uint64_t adoptions = adopter.core().superblocks().stats().adoptions;
  adopter.core().Run(5);
  reference.core().Run(5);
  EXPECT_EQ(adopter.core().superblocks().stats().adoptions, adoptions + 1);
  EXPECT_EQ(adopter.core().StateDigest(true), reference.core().StateDigest(true));
  const RunResult ra = adopter.core().Run(100000);
  const RunResult rb = reference.core().Run(100000);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_EQ(adopter.core().StateDigest(true), reference.core().StateDigest(true));
  ExpectSameRetires(a, b);
  EXPECT_EQ(adopter.core().stats().interrupts, 1u);
  EXPECT_EQ(reference.core().stats().interrupts, 1u);
}

// The load-use bubble state: the load just left EX for MEM, its consumer
// waits in ID and EX is empty. StepFast adopts it with EX empty and the
// load as the pending MEM op.
TEST(LivePipelineEntryTest, AdoptsTheLoadUseBubble) {
  const auto boot = [](MetalSystem& s) {
    ASSERT_OK(s.LoadProgramSource(R"(
      _start:
        la t5, buf
        li s0, 30
      loop:
        lw t0, 0(t5)
        addi t1, t0, 1
        sw t1, 0(t5)
        addi s0, s0, -1
        bnez s0, loop
        lw a0, 0(t5)
        halt a0
        .data
      buf:
        .word 5
    )"));
  };
  MetalSystem adopter;
  MetalSystem reference(PerCycleConfig());
  boot(adopter);
  boot(reference);
  std::vector<Retire> a, b;
  RecordRetires(adopter.core(), &a);
  RecordRetires(reference.core(), &b);
  // Run into the loop, then to the end of a stall cycle.
  StepBothUntil(adopter, reference,
                [](Core& core) { return core.stats().load_use_stalls >= 3; });
  EXPECT_GT(adopter.core().StepFast(1000), 0u);
  EXPECT_EQ(adopter.core().superblocks().stats().adoptions, 1u);
  while (reference.core().cycle() < adopter.core().cycle()) {
    reference.core().StepCycle();
  }
  EXPECT_EQ(adopter.core().StateDigest(true), reference.core().StateDigest(true));
  const RunResult ra = adopter.core().Run(100000);
  const RunResult rb = reference.core().Run(100000);
  EXPECT_EQ(ra.exit_code, 35u);
  EXPECT_EQ(rb.exit_code, 35u);
  EXPECT_EQ(adopter.core().StateDigest(true), reference.core().StateDigest(true));
  ExpectSameRetires(a, b);
}

// A missed load whose consumer is a branch, a jalr or a load: after the
// frozen window the load completes in the cycle its consumer runs, and the
// consumer must read the loaded value (a branch and a memory slot leave
// that cycle to StepCycle; a jump reads its target after MEM).
TEST(LivePipelineEntryTest, ConsumerOfAMissedLoadReadsTheLoadedValue) {
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{},
      [](MetalSystem& s) {
        ASSERT_OK(s.LoadProgramSource(R"(
          _start:
            li s0, 60
            li s1, 0
            la t5, buf
            la t6, ptrs
          loop:
            lw t0, 0(t5)
            bne t0, zero, skip
            addi s1, s1, 1
          skip:
            lw t2, 0(t6)
            lw t3, 0(t2)
            add s1, s1, t3
            lw t4, 4(t6)
            jalr ra, 0(t4)
            addi t5, t5, 1024
            addi s0, s0, -1
            bnez s0, loop
            halt s1
          bump:
            addi s1, s1, 5
            ret
            .data
          ptrs:
            .word ptrs
            .word bump
          buf:
            .word 1
        )"));
      },
      LiveEntryChunks(5));
  EXPECT_GT(stats.miss_freezes, 0u);
}

// Normal mode with an intercept armed refuses every StepFast call, so no
// normal-mode trace runs; the mroutine it calls still runs as an adopted
// Metal trace.
TEST(LivePipelineEntryTest, ArmedInterceptRefusesNormalModeAdoption) {
  const SuperblockStats stats = RunAgainstPerCycle(
      CoreConfig{},
      [](MetalSystem& s) {
        s.AddMcode(R"(
            .mentry 1, spin
          spin:
            li t1, 20
          again:
            addi t1, t1, -1
            add a1, a1, t1
            bnez t1, again
            mexit
        )");
        ASSERT_OK(s.LoadProgramSource(R"(
          _start:
            li s0, 30
          loop:
            menter 1
            addi s1, s1, 1
            addi s0, s0, -1
            bnez s0, loop
            halt s1
        )"));
        ASSERT_OK(s.Boot());
        // Intercept fence, which the program never executes, into entry 5.
        s.core().metal().ApplyMintset((1u << 31) | 0x0F, 5);
      },
      LiveEntryChunks(6));
  EXPECT_GT(stats.adoptions, 0u);
  EXPECT_EQ(stats.instructions, stats.metal_instructions);
  EXPECT_GT(stats.refusals[static_cast<size_t>(SbRefusal::kIntercept)], 0u);
}

// With a fault engine attached Run never calls StepFast and counts one
// refusal per call; a direct StepFast on a latched pipeline refuses too.
TEST(LivePipelineEntryTest, FaultEngineRefusesAdoption) {
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(kMixedProgram)));
  FaultEngine engine(/*seed=*/3);
  ASSERT_OK(engine.AddSpec("mreg@900000:at=3,bit=0"));  // never fires here
  core.SetFaultEngine(&engine);
  for (int i = 0; i < 5; ++i) {
    core.StepCycle();
  }
  EXPECT_EQ(core.StepFast(1000), 0u);
  for (int i = 0; i < 4; ++i) {
    core.Run(100);
  }
  const SuperblockStats& stats = core.superblocks().stats();
  EXPECT_EQ(stats.executions, 0u);
  EXPECT_EQ(stats.adoptions, 0u);
  // One per Run call, plus the direct call when the fetch unit was idle.
  EXPECT_GE(stats.refusals[static_cast<size_t>(SbRefusal::kFaultEngine)], 4u);
}

// The watchdog clamp on an mroutine adopted right after its menter splice:
// the machine check fires on the per-cycle cycle.
TEST(LivePipelineEntryTest, WatchdogClampOnAnAdoptedMroutine) {
  CoreConfig config;
  config.metal_watchdog_cycles = 150;
  CoreStats core_stats;
  const SuperblockStats stats = RunAgainstPerCycle(
      config,
      [](MetalSystem& s) {
        s.AddMcode(R"(
            .mentry 1, spin
            .mentry 2, recover
          spin:
            li t1, 100000
          again:
            addi t1, t1, -1
            mld t0, 4(zero)
            addi t0, t0, 1
            mst t0, 4(zero)
            bnez t1, again
            mexit
          recover:
            mld a0, 4(zero)
            mexit
        )");
        ASSERT_OK(s.LoadProgramSource(R"(
          _start:
            li s0, 3
            li s1, 0
          loop:
            menter 1
            add s1, s1, a0
            addi s0, s0, -1
            bnez s0, loop
            halt s1
        )"));
        s.DelegateException(ExcCause::kMachineCheck, 2);
      },
      {100000}, {}, &core_stats);
  EXPECT_EQ(core_stats.watchdog_fires, 3u);
  EXPECT_GT(stats.adoptions, 0u);
  EXPECT_GT(stats.cycles, 3 * 100u);
}

// ---------------------------------------------------------------------------
// Memory slots, table-driven: every trace memory kind, crossed with a dcache
// hit or miss, with and without a load-use stall after it, at skid depth 0
// and 1, and entered fresh or adopted with whatever the pipeline holds
// (a live pending op included). The traced machine's SaveState bytes must
// equal a fast_step-off twin's at every cycle.
// ---------------------------------------------------------------------------

struct MemSlotCase {
  const char* op;    // the slot under test; t0 is the load target
  bool metal;        // inside an mroutine
  bool miss;         // a fresh dcache line every iteration
  bool stall_after;  // the next slot reads t0
  bool depth1;       // a load-use stall first, so the slot runs with a live skid
};

std::string MemSlotLoop(const MemSlotCase& c) {
  std::ostringstream loop;
  loop << "    li s0, 4\n"
       << "  loop:\n"
       << "    addi t1, t1, 1\n";
  if (c.depth1) {
    loop << "    lw t4, 0(s3)\n"
         << "    addi t4, t4, 1\n";
  }
  loop << "    " << c.op << "\n"
       << (c.stall_after ? "    add t1, t1, t0\n" : "    addi t5, t5, 1\n")
       << "    addi t5, t5, 2\n";
  if (c.miss) {
    loop << "    addi s2, s2, 64\n";
  }
  loop << "    addi s0, s0, -1\n"
       << "    bnez s0, loop\n";
  return loop.str();
}

void SetUpMemSlotCase(MetalSystem& s, const MemSlotCase& c) {
  std::ostringstream program;
  program << "  _start:\n"
          << "    la s2, buf\n"
          << "    la s3, buf\n"
          << "    li t2, 0x89abcdef\n"
          << "    lw t3, 0(s2)\n"  // warm the first line
          << "    li t1, 0\n";
  if (c.metal) {
    program << "    menter 1\n";
    s.AddMcode(".mentry 1, body\n  body:\n    li t0, 0x5a5a5a5a\n    mst t0, 8(zero)\n" +
               MemSlotLoop(c) + "    mexit\n");
  } else {
    program << MemSlotLoop(c);
  }
  program << "    halt t1\n"
          << "    .data\n"
          << "  buf:\n";
  for (int i = 0; i < 96; ++i) {
    program << "    .word " << 0x80c0a0f0u + 0x01030507u * i << "\n";
  }
  ASSERT_OK(s.LoadProgramSource(program.str()));
  ASSERT_OK(s.Boot());
}

std::vector<uint8_t> StateBytes(const Core& core) {
  SnapWriter w;
  core.SaveState(w, /*include_dram=*/true);
  return w.TakeBytes();
}

TEST(MemorySlotTableTest, EveryKindMatchesPerCycleAtEveryCycle) {
  std::vector<MemSlotCase> cases;
  const auto add = [&](const char* op, bool metal, bool load, bool dram) {
    for (bool miss : {false, true}) {
      for (bool stall_after : {false, true}) {
        for (bool depth1 : {false, true}) {
          if ((miss && !dram) || (stall_after && !load)) {
            continue;
          }
          cases.push_back({op, metal, miss, stall_after, depth1});
        }
      }
    }
  };
  for (bool metal : {false, true}) {
    for (const char* op : {"lb t0, 5(s2)", "lh t0, 6(s2)", "lw t0, 8(s2)", "lbu t0, 5(s2)",
                           "lhu t0, 6(s2)"}) {
      add(op, metal, true, true);
    }
    for (const char* op : {"sb t2, 5(s2)", "sh t2, 6(s2)", "sw t2, 8(s2)"}) {
      add(op, metal, false, true);
    }
  }
  // Metal-only kinds: the physical word ops and the MRAM data port.
  add("plw t0, 8(s2)", true, true, true);
  add("psw t2, 8(s2)", true, false, true);
  add("mld t0, 8(zero)", true, true, false);
  add("mst t2, 8(zero)", true, false, false);

  for (const MemSlotCase& c : cases) {
    SCOPED_TRACE(testing::Message() << c.op << (c.metal ? " metal" : " normal")
                                    << (c.miss ? " miss" : " hit")
                                    << (c.stall_after ? " stall_after" : "")
                                    << (c.depth1 ? " depth 1" : " depth 0"));
    MetalSystem reference(PerCycleConfig());
    SetUpMemSlotCase(reference, c);
    std::vector<std::vector<uint8_t>> states{StateBytes(reference.core())};
    while (!reference.core().halted() && states.size() < 5000) {
      reference.core().StepCycle();
      states.push_back(StateBytes(reference.core()));
    }
    ASSERT_TRUE(reference.core().halted());
    const uint64_t end = states.size() - 1;
    uint64_t fast_hits = 0;
    uint64_t miss_freezes = 0;
    uint64_t adoptions = 0;
    for (uint64_t split = 0; split < end; ++split) {
      // Fresh: one Run from the cold start, compared where it stops.
      MetalSystem fresh;
      SetUpMemSlotCase(fresh, c);
      fresh.core().Run(split + 1);
      ASSERT_EQ(StateBytes(fresh.core()), states[fresh.core().cycle()])
          << "fresh entry, Run(" << split + 1 << ")";
      // Adopted: per-cycle up to `split`, then one Run to the end.
      MetalSystem adopted;
      SetUpMemSlotCase(adopted, c);
      for (uint64_t i = 0; i < split; ++i) {
        adopted.core().StepCycle();
      }
      adopted.core().Run(end - split);
      ASSERT_EQ(StateBytes(adopted.core()), states[adopted.core().cycle()])
          << "adopted at cycle " << split;
      fast_hits += fresh.core().superblocks().stats().mem_fast_hits;
      miss_freezes += fresh.core().superblocks().stats().miss_freezes;
      adoptions += adopted.core().superblocks().stats().adoptions;
    }
    EXPECT_GT(fast_hits, 0u);
    if (c.miss) {
      EXPECT_GT(miss_freezes, 0u);
    }
    EXPECT_GT(adoptions, 0u);
  }
}

// ---------------------------------------------------------------------------
// CLI: fast_step is the one stepping flag; the removed tier flags and the
// removed mfuzz oracle are usage errors (exit 2), never silently ignored.
// ---------------------------------------------------------------------------

TEST(StepFlagCliTest, RemovedTierFlagsExitUsage) {
  const std::string program = testing::TempDir() + "/step_flags_halt.s";
  {
    std::ofstream out(program);
    out << "_start:\n  halt zero\n";
  }
  const std::string run = std::string(MSIM_CLI_PATH) + " run " + program + " ";
  const std::string replay =
      std::string(MSIM_CLI_PATH) + " replay " + program + " --until-divergence ";
  const std::string quiet = " 2>/dev/null";
  EXPECT_EQ(RunShell(run + "--no-fast-step" + quiet), kExitOk);
  EXPECT_EQ(RunShell(replay + "--b-no-fast-step" + quiet), kExitOk);
  EXPECT_EQ(RunShell(run + "--no-superblocks" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(run + "--superblock-max-trees 4" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(run + "--superblock-max-trees 4294967297" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(replay + "--no-superblocks" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(replay + "--b-superblocks" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(replay + "--b-no-superblocks" + quiet), kExitUsage);
  EXPECT_EQ(RunShell(std::string(MFUZZ_CLI_PATH) + " --oracle superblock --runs 1 --out " +
                     testing::TempDir() + "/step_flags_mfuzz" + quiet),
            kExitUsage);
}

}  // namespace
}  // namespace msim
