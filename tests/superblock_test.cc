// Superblock translation tier (cpu/superblock.h, docs/performance.md).
//
// The tier is "invisible by construction", one rung above the predecode
// cache: N cycles through chained trace execution must leave machine state
// byte-identical to N Core::StepCycle calls. The tests mirror predecode_test.cc's structure —
// digest matrices at awkward sync points, an invalidation matrix against
// every coherence source, and snapshot round trips — with the superblock
// cache's own counters checked on the side so none of the parity checks can
// pass vacuously with the tier disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "cpu/superblock.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/exit_codes.h"
#include "tests/sim_test_util.h"

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
// InstrInfo, which the per-cycle pipeline dispatches on.
TEST(SuperblockTest, TraceKindClassesMatchInstrInfo) {
  auto expect_class = [](InstrKind kind, std::string_view cls) {
    const InstrInfo& info = GetInstrInfo(kind);
    const std::string_view want = info.is_load || info.is_store ? "Mem"
                                  : info.is_branch              ? "Branch"
                                  : info.is_jump                ? "Jump"
                                  : info.writes_rd              ? "Alu"
                                                                : "Nop";
    EXPECT_EQ(cls, want) << info.mnemonic;
    EXPECT_TRUE(TraceSafeInstr(kind)) << info.mnemonic;
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

// A loop body of 150 straight-line instructions: longer than one segment.
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
  const Superblock* sb = traced.superblocks().Lookup(program.symbols.at("loop"));
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->exec_len, kSuperblockMaxLen);
  for (const SbSegment& seg : sb->segs) {
    EXPECT_LE(seg.exec_len, kSuperblockMaxLen);
  }
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

// Accumulates into MRAM data with mld/mst (same mroutine as predecode_test):
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
  // Traces never contain MRAM code (the tier only runs outside Metal mode
  // and the build walk stops at the DRAM boundary), so a corruption-scrub
  // episode in the mroutine must leave the DRAM traces untouched AND the
  // retire streams identical with and without the tier.
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

TEST(SuperblockSnapshotTest, SaveRestoreRoundTripIsByteIdentical) {
  // The msim "superblocks" extras section: serializing a warm cache,
  // restoring it into a fresh one and serializing again must reproduce the
  // byte stream — traces (stale ones included, via raw-word re-translation)
  // and counters both.
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(kMixedProgram)));
  core.Run(5000);
  ASSERT_GT(core.superblocks().stats().builds, 0u);

  SnapWriter first;
  core.superblocks().SaveState(first);
  const std::vector<uint8_t> bytes = first.TakeBytes();

  SuperblockCache restored(/*enabled=*/true);
  SnapReader reader(bytes);
  ASSERT_OK(restored.RestoreState(reader));
  SnapWriter second;
  restored.SaveState(second);
  EXPECT_EQ(second.TakeBytes(), bytes);

  // Restoring into a per-cycle core (tier disabled) keeps the counters (the
  // executor never runs, so --stats-json stays byte-identical) but drops
  // the traces.
  SuperblockCache disabled(/*enabled=*/false);
  SnapReader reader2(bytes);
  ASSERT_OK(disabled.RestoreState(reader2));
  EXPECT_EQ(disabled.stats().builds, core.superblocks().stats().builds);
  EXPECT_EQ(disabled.stats().executions, core.superblocks().stats().executions);
  EXPECT_EQ(disabled.stats().chains, core.superblocks().stats().chains);
  EXPECT_FALSE(disabled.enabled());
}

// A v2 "superblocks" section holding one single-segment trace at 0x1000.
std::vector<uint8_t> OneTraceSection(uint32_t exec_len, const std::vector<uint32_t>& raws) {
  SnapWriter w;
  w.U32(kSuperblockSectionV2);
  w.U32(2);       // section format version
  w.U32(1);       // live traces
  w.U32(0x1000);  // trace start
  w.U32(1);       // segments
  w.U32(0x1000);  // segment start
  w.U32(exec_len);
  w.U32(static_cast<uint32_t>(raws.size()));  // len
  for (const uint32_t raw : raws) {
    w.U32(raw);
  }
  for (size_t i = 0; i < raws.size(); ++i) {
    w.U32(static_cast<uint32_t>(static_cast<int32_t>(kSbSegUnlinked)));
    w.U32(0);  // taken_n
    w.U32(0);  // nottaken_n
  }
  w.U8(0);   // grow_pending
  w.U32(0);  // grow_slot
  for (int i = 0; i < 10; ++i) {
    w.U64(0);  // counters
  }
  return w.TakeBytes();
}

TEST(SuperblockSnapshotTest, RestoreRejectsCorruptSections) {
  SuperblockCache cache(/*enabled=*/true);
  auto restores = [&cache](const std::vector<uint8_t>& bytes) {
    SnapReader r(bytes);
    return cache.RestoreState(r).ok();
  };
  constexpr uint32_t kAddi = 0x00000013;   // addi x0, x0, 0
  constexpr uint32_t kEcall = 0x00000073;  // not trace-safe
  // The well-formed baseline restores, so each rejection below is its defect.
  EXPECT_TRUE(restores(OneTraceSection(2, {kAddi, kAddi})));
  {
    // Trace count past the cache geometry.
    SnapWriter w;
    w.U32(kSuperblockSectionV2);
    w.U32(2);
    w.U32(kSuperblockEntries + 1);
    EXPECT_FALSE(restores(w.TakeBytes()));
  }
  // Geometry that claims fewer total slots than executable ones.
  EXPECT_FALSE(restores(OneTraceSection(4, {kAddi, kAddi, kAddi})));
  // An executable slot whose raw word is not trace-safe.
  EXPECT_FALSE(restores(OneTraceSection(2, {kAddi, kEcall})));
  {
    // The retired v1 layout (no sentinel: live count, then start, exec_len,
    // len, raw words and six counters) is malformed, not migrated.
    SnapWriter w;
    w.U32(1);
    w.U32(0x1000);
    w.U32(2);
    w.U32(2);
    w.U32(kAddi);
    w.U32(kAddi);
    for (int i = 0; i < 6; ++i) {
      w.U64(0);
    }
    EXPECT_FALSE(restores(w.TakeBytes()));
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

// msim run --restore: a malformed extras section is a bad input file, a
// usage error (exit 2) like a malformed core section.
TEST(StepFlagCliTest, TruncatedSuperblocksSectionExitsUsage) {
  const std::string source = "_start:\n  li a0, 0\n  li t0, 200\nloop:\n"
                             "  addi a0, a0, 1\n  blt a0, t0, loop\n  halt zero\n";
  const std::string program = testing::TempDir() + "/restore_extras.s";
  {
    std::ofstream out(program);
    out << source;
  }
  MetalSystem system;  // msim run's default machine
  ASSERT_OK(system.LoadProgramSource(source));
  ASSERT_OK(system.Boot());
  system.core().Run(100);
  ASSERT_GT(system.core().superblocks().stats().builds, 0u);
  SnapWriter w;
  system.core().superblocks().SaveState(w);
  std::vector<uint8_t> section = w.TakeBytes();
  const std::string good = testing::TempDir() + "/restore_extras_good.msnap";
  ASSERT_OK(SaveSnapshotFile(system.core(), good, {{"superblocks", section}}));
  section.resize(section.size() / 2);
  const std::string bad = testing::TempDir() + "/restore_extras_bad.msnap";
  ASSERT_OK(SaveSnapshotFile(system.core(), bad, {{"superblocks", section}}));

  const std::string run = std::string(MSIM_CLI_PATH) + " run " + program + " --restore ";
  EXPECT_EQ(RunShell(run + good + " >/dev/null 2>&1"), kExitOk);
  EXPECT_EQ(RunShell(run + bad + " >/dev/null 2>&1"), kExitUsage);
}

}  // namespace
}  // namespace msim
