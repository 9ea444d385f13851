// Hot-path stepping (docs/performance.md).
//
// Two properties are under test, both "invisible by construction":
//   1. StepFast is cycle- and byte-exact: after the same number of cycles a
//      fast_step core serializes to the identical SaveState stream as a
//      per-cycle core, on plain loops and on the paper's Metal guests.
//   2. Code mutation is observed alike: for every source of changed code
//      (loader code writes, MRAMSCRUB, fault-engine flips behind the write
//      path, self-modifying DRAM stores, snapshot restore) the traced retire
//      stream matches the per-cycle reference cycle for cycle. The
//      PredecodeInvalidationTest/PredecodeTrapTest suite names date from an
//      address-keyed decode cache that needed this coherence; per-cycle
//      fetch now decodes by the word itself (DecodeMemoized), so the matrix
//      pins the trace tier's validation against the reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/creg.h"
#include "ext/cpt.h"
#include "ext/stm.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
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

// The per-cycle reference configuration. Stepping is architecturally
// invisible, so a default (traced) core must match it cycle-exactly.
CoreConfig ReferenceConfig() {
  CoreConfig config;
  config.fast_step = false;
  return config;
}

// ---------------------------------------------------------------------------
// StepFast byte-exactness.
// ---------------------------------------------------------------------------

// ALU/branch loop interleaved with loads and stores: traces run the inner
// loop and its loads/stores, and chain on the taken back edges.
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

void BootMixed(MetalSystem& system) {
  ASSERT_OK(system.LoadProgramSource(kMixedProgram));
  ASSERT_OK(system.Boot());
}

// The paper's STM transfer guest (ext_stm_test TransferPreservesTotal):
// transactions whose loads and stores are intercepted into mroutines,
// joined by plain non-Metal loop code the trace tier runs.
void BootStmTransfer(MetalSystem& system) {
  constexpr uint32_t kShared = 0x00600000;
  ASSERT_OK(StmExtension::Install(system, /*clock_addr=*/0x00700000,
                                  /*vtbl_addr=*/0x00704000, /*vtbl_words=*/1024));
  ASSERT_OK(system.LoadProgramSource(R"(
    .equ A, 0x00600000
    .equ B, 0x00600004
    _start:
      li s0, 20
    again:
      la a0, on_abort
      menter 24
      li t5, A
      lw t6, 0(t5)
      addi t6, t6, -10
      sw t6, 0(t5)
      li t5, B
      lw t6, 0(t5)
      addi t6, t6, 10
      sw t6, 0(t5)
      menter 27
      addi s0, s0, -1
      bnez s0, again
      li t5, A
      lw t0, 0(t5)
      li t5, B
      lw t1, 0(t5)
      add a0, t0, t1
      halt a0
    on_abort:
      j again
  )"));
  ASSERT_OK(system.Boot());
  ASSERT_TRUE(system.core().bus().dram().Write32(kShared, 500));
  ASSERT_TRUE(system.core().bus().dram().Write32(kShared + 4, 500));
}

// The custom-page-table guest (examples/custom_page_tables.cc): paged
// non-Metal code whose first touch of each heap page faults into an OS
// handler that calls frame-allocator and page-mapper mroutines, with the
// mcode walker refilling the TLB on every miss.
void BootCustomPageTables(MetalSystem& system) {
  constexpr uint32_t kTableRegion = 0x00400000;
  constexpr uint32_t kFramePool = 0x00500000;
  const Program program = MustAssemble(R"(
      .equ HEAP, 0x40000000
    _start:
      li s0, 8
      li s1, HEAP
      li s2, 0
    fill:
      sw s2, 0(s1)
      li t0, 0x10000
      add s1, s1, t0
      addi s2, s2, 1
      addi s0, s0, -1
      bnez s0, fill
      li s0, 8
      li s1, HEAP
      li a0, 0
    sum:
      lw t1, 0(s1)
      add a0, a0, t1
      li t0, 0x10000
      add s1, s1, t0
      addi s0, s0, -1
      bnez s0, sum
      halt a0
    os_fault:
      mv s6, a0
      mv s7, a1
      menter 4
      mv a1, a0
      mv a0, s6
      menter 5
      jr s7
  )");
  ASSERT_OK(CustomPageTable::Install(system, program.symbols.at("os_fault")));
  system.AddMcode(R"(
      .mentry 4, os_alloc_frame
    os_alloc_frame:
      mld t0, 16(zero)
      mv a0, t0
      li t1, 1024
    zero_loop:
      psw zero, 0(t0)
      addi t0, t0, 4
      addi t1, t1, -1
      bnez t1, zero_loop
      mld t0, 16(zero)
      li t1, 4096
      add t0, t0, t1
      mst t0, 16(zero)
      mexit

      .mentry 5, os_map_page
    os_map_page:
      mld t0, 20(zero)
      srli t1, a0, 22
      slli t1, t1, 2
      add t0, t0, t1
      plw t2, 0(t0)
      andi t3, t2, 1
      bnez t3, have_l2
      mld t2, 16(zero)
      mv t4, t2
      li t5, 1024
    zero_l2:
      psw zero, 0(t4)
      addi t4, t4, 4
      addi t5, t5, -1
      bnez t5, zero_l2
      mld t4, 16(zero)
      li t5, 4096
      add t4, t4, t5
      mst t4, 16(zero)
      ori t2, t2, 1
      psw t2, 0(t0)
    have_l2:
      li t3, -4096
      and t2, t2, t3
      srli t1, a0, 12
      andi t1, t1, 0x3FF
      slli t1, t1, 2
      add t2, t2, t1
      li t3, -4096
      and t1, a1, t3
      ori t1, t1, 0x19
      psw t1, 0(t2)
      mld t0, 24(zero)
      addi t0, t0, 1
      mst t0, 24(zero)
      mexit
  )");
  ASSERT_OK(system.LoadProgram(program));
  ASSERT_OK(system.Boot());
  Core& core = system.core();
  CustomPageTable cpt(core, kTableRegion, 0x00100000);
  const auto root = cpt.CreateAddressSpace();
  ASSERT_OK(root.status());
  for (uint32_t page = 0; page < 16; ++page) {
    ASSERT_OK(cpt.Map(*root, page * 4096, page * 4096, kPteR | kPteW | kPteX));
  }
  for (uint32_t page = 0; page < 4; ++page) {
    const uint32_t addr = 0x00100000 + page * 4096;
    ASSERT_OK(cpt.Map(*root, addr, addr, kPteR | kPteW));
  }
  ASSERT_OK(cpt.Activate(*root));
  ASSERT_TRUE(core.mram().WriteData32(16, kFramePool));
  ASSERT_TRUE(core.mram().WriteData32(20, *root));
  ASSERT_TRUE(core.mram().WriteData32(24, 0));
  core.metal().WriteCreg(kCrPgEnable, 1);
}

TEST(FastStepTest, ByteExactAgainstPerCycleAtManySyncPoints) {
  const struct {
    const char* name;
    void (*boot)(MetalSystem&);
  } kGuests[] = {{"mixed", BootMixed},
                 {"stm_transfer", BootStmTransfer},
                 {"custom_page_tables", BootCustomPageTables}};
  for (const auto& guest : kGuests) {
    SCOPED_TRACE(guest.name);
    CoreConfig fast_config;  // defaults: fast_step on
    MetalSystem fast_system(fast_config);
    CoreConfig slow_config = fast_config;
    slow_config.fast_step = false;
    MetalSystem slow_system(slow_config);
    guest.boot(fast_system);
    guest.boot(slow_system);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    Core& fast = fast_system.core();
    Core& slow = slow_system.core();

    std::vector<Retire> fast_retires, slow_retires;
    RecordRetires(fast, &fast_retires);
    RecordRetires(slow, &slow_retires);

    // Deliberately awkward chunk sizes so sync points land mid-trace, on
    // taken branches and mid-refill. CoreConfigHash excludes fast_step, so
    // the SaveState streams (and hence digests) are comparable.
    const uint64_t kChunks[] = {1, 2, 3, 7, 64, 129, 1000, 4096, 977, 50000};
    uint64_t at = 0;
    for (const uint64_t chunk : kChunks) {
      fast.Run(chunk);
      slow.Run(chunk);
      at += chunk;
      ASSERT_EQ(fast.cycle(), slow.cycle()) << "after " << at << " cycles";
      ASSERT_EQ(fast.StateDigest(/*include_dram=*/true),
                slow.StateDigest(/*include_dram=*/true))
          << "state diverged by cycle " << at;
    }
    const RunResult fr = fast.Run(2'000'000);
    const RunResult sr = slow.Run(2'000'000);
    EXPECT_EQ(fr.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(sr.reason, RunResult::Reason::kHalted);
    EXPECT_EQ(fr.exit_code, sr.exit_code);
    EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
    ExpectSameRetires(fast_retires, slow_retires);
    // Not vacuous: the trace tier ran on every guest.
    EXPECT_GT(fast.superblocks().stats().executions, 0u);
  }
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

TEST(FastStepTest, ByteExactWithTimerInterrupts) {
  // Device events and interrupt delivery exercise the event-horizon exit and
  // the single TickDevices catch-up: the fast core must take every interrupt
  // at exactly the cycle the per-cycle core does.
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
  CoreConfig fast_config;
  Core fast(fast_config);
  CoreConfig slow_config = fast_config;
  slow_config.fast_step = false;
  Core slow(slow_config);
  boot(fast);
  boot(slow);

  const uint64_t kChunks[] = {500, 333, 1024, 10000, 50000};
  for (const uint64_t chunk : kChunks) {
    fast.Run(chunk);
    slow.Run(chunk);
    ASSERT_EQ(fast.cycle(), slow.cycle());
    ASSERT_EQ(fast.StateDigest(true), slow.StateDigest(true))
        << "diverged by cycle " << fast.cycle();
  }
  const RunResult fr = fast.Run(2'000'000);
  const RunResult sr = slow.Run(2'000'000);
  EXPECT_EQ(fr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(sr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(fast.stats().interrupts, slow.stats().interrupts);
  EXPECT_GE(fast.stats().interrupts, 10u);
  EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
}

TEST(FastStepTest, RetireBoundedSteppingStopsExactly) {
  // The lockstep pump (snap/diverge) relies on max_retires: a bounded call
  // must never overshoot, and the bounded trajectory must match an unbounded
  // per-cycle run.
  Core fast;  // defaults
  ASSERT_OK(fast.LoadProgram(MustAssemble(kMixedProgram)));
  std::vector<Retire> retires;
  RecordRetires(fast, &retires);
  // Pump forward 10 retires at a time using the public StepFast + StepCycle
  // fallback, mirroring RunRetireLockstep's structure.
  while (!fast.halted() && retires.size() < 500) {
    const size_t before = retires.size();
    if (fast.StepFast(100000, /*max_retires=*/10) == 0) {
      fast.StepCycle();
    }
    EXPECT_LE(retires.size() - before, 10u);
  }
  Core slow(ReferenceConfig());
  ASSERT_OK(slow.LoadProgram(MustAssemble(kMixedProgram)));
  std::vector<Retire> slow_retires;
  RecordRetires(slow, &slow_retires);
  while (!slow.halted() && slow_retires.size() < retires.size()) {
    slow.StepCycle();
  }
  ASSERT_GE(slow_retires.size(), retires.size());
  slow_retires.resize(retires.size());
  ExpectSameRetires(retires, slow_retires);
}

TEST(FastStepTest, SingleCycleLockstepHoldsAtEveryHorizonBoundary) {
  // Horizon audit regression: pump the fast core ONE cycle at a time
  // (StepFast(1) with the StepCycle fallback, exactly the diverge-pump
  // shape) against a per-cycle core, with a short-interval timer so device
  // horizons land on every possible trace phase — mid-trace, on chained
  // back edges, during refills. A trace that commits even one
  // cycle at or past its horizon shows up as a digest mismatch at that
  // exact cycle instead of a smeared end-of-run failure.
  auto boot = [](Core& core) {
    MustLoadMcodeRaw(core, kTimerHandler);
    ASSERT_OK(core.LoadProgram(MustAssemble(R"(
      _start:
        li t2, 3000
      loop:
        addi t2, t2, -1
        bne t2, zero, loop
        halt zero
    )")));
    core.metal().DelegateIrq(1);
    core.metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    core.timer().Write32(12, 97);  // short, odd interval: all phases hit
    core.timer().Write32(4, 97);
    core.timer().Write32(8, 1);
  };
  Core fast;  // defaults: fast_step on
  CoreConfig slow_config;
  slow_config.fast_step = false;
  Core slow(slow_config);
  boot(fast);
  boot(slow);
  while (!fast.halted() && !slow.halted()) {
    if (fast.StepFast(1) == 0) {
      fast.StepCycle();
    }
    slow.StepCycle();
    ASSERT_EQ(fast.cycle(), slow.cycle());
    // DRAM excluded per cycle to keep the pump cheap; the program never
    // stores, and the final full digest below covers memory anyway.
    ASSERT_EQ(fast.StateDigest(/*include_dram=*/false),
              slow.StateDigest(/*include_dram=*/false))
        << "diverged at cycle " << fast.cycle();
  }
  EXPECT_TRUE(fast.halted());
  EXPECT_TRUE(slow.halted());
  EXPECT_EQ(fast.StateDigest(true), slow.StateDigest(true));
  EXPECT_GE(fast.stats().interrupts, 10u);
}

// kTimerHandler plus an mroutine that reads timer COUNT over MMIO and
// folds it into MRAM data[4].
std::string TimerSampleMcode() {
  return std::string(kTimerHandler) + R"(
    .mentry 2, sample
  sample:
    li t0, 0xF0001000
    lw t1, 0(t0)
    mld t2, 4(zero)
    slli t3, t2, 1
    xor t2, t3, t1
    mst t2, 4(zero)
    mexit
)";
}

constexpr const char* kTimerSampleProgram = R"(
  _start:
    li s0, 300
  outer:
    menter 2
    li s1, 6
  inner:
    addi s2, s2, 3
    xor s2, s2, s1
    addi s1, s1, -1
    bne s1, zero, inner
    addi s0, s0, -1
    bne s0, zero, outer
    halt zero
)";

void StartSampleTimer(Core& core) {
  core.metal().DelegateIrq(1);
  core.metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
  core.timer().Write32(12, 61);  // periodic; odd, so fires land on every phase
  core.timer().Write32(4, 61);
  core.timer().Write32(8, 1);
}

void BootTimerSample(Core& core) {
  MustLoadMcodeRaw(core, TimerSampleMcode());
  ASSERT_OK(core.LoadProgram(MustAssemble(kTimerSampleProgram)));
  StartSampleTimer(core);
}

std::vector<uint8_t> StateBytes(const Core& core) {
  SnapWriter w;
  core.SaveState(w, /*include_dram=*/false);
  return w.TakeBytes();
}

TEST(FastStepTest, DeviceHorizonMatchesPerCycleAcrossRunChunksAndRestore) {
  // Inside Run, a fast_step core ticks the devices only at their event
  // horizon and catches them up before every MMIO access and on return.
  // The mroutine reads timer COUNT over MMIO, so a missing or doubled
  // catch-up tick changes the folded sample; the periodic timer moves the
  // horizon at every fire. Run chunks of every length 1..97 put the return
  // catch-up on every phase, and a snapshot taken between two fires must
  // resume on the horizon path exactly.
  CoreConfig slow_config;
  slow_config.fast_step = false;
  Core fast;  // defaults: fast_step on
  Core slow(slow_config);
  BootTimerSample(fast);
  BootTimerSample(slow);
  ASSERT_FALSE(testing::Test::HasFatalFailure());

  // The SaveState stream without DRAM after every chunk; the full digest
  // (a 16 MiB scan) once per sweep of chunk lengths — the guest never
  // stores to DRAM.
  auto expect_same = [](const Core& a, const Core& b, const char* what, bool with_dram) {
    ASSERT_EQ(a.cycle(), b.cycle()) << what;
    ASSERT_TRUE(StateBytes(a) == StateBytes(b)) << what << ": diverged by cycle " << a.cycle();
    if (with_dram) {
      ASSERT_EQ(a.StateDigest(/*include_dram=*/true), b.StateDigest(/*include_dram=*/true))
          << what << ": at cycle " << a.cycle();
    }
  };

  uint64_t chunk = 1;
  auto run_chunks = [&](std::vector<Core*> cores, uint64_t until) {
    while (!cores[0]->halted() && cores[0]->cycle() < until) {
      for (Core* core : cores) {
        core->Run(chunk);
      }
      for (size_t i = 1; i < cores.size(); ++i) {
        expect_same(*cores[i], *cores[0], i == 1 ? "fast" : "restored", chunk == 97);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
      chunk = chunk % 97 + 1;
    }
  };

  run_chunks({&slow, &fast}, 9000);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  ASSERT_FALSE(fast.halted());
  // Mid-horizon: the next timer event is still ahead.
  ASSERT_GT(fast.bus().NextDeviceEventCycle(fast.cycle()), fast.cycle() + 1);
  Core restored;  // defaults: fast_step on
  ASSERT_OK(RestoreSnapshot(restored, SaveSnapshot(fast)));
  expect_same(restored, slow, "restored", /*with_dram=*/true);
  run_chunks({&slow, &fast, &restored}, UINT64_MAX);
  ASSERT_FALSE(testing::Test::HasFatalFailure());

  EXPECT_TRUE(slow.halted());
  EXPECT_TRUE(fast.halted());
  EXPECT_TRUE(restored.halted());
  expect_same(fast, slow, "fast", /*with_dram=*/true);
  expect_same(restored, slow, "restored", /*with_dram=*/true);
  // Not vacuous: traces ran, the timer fired into the handler, and every
  // mroutine call sampled COUNT.
  EXPECT_GT(fast.superblocks().stats().executions, 0u);
  EXPECT_GE(fast.stats().interrupts, 50u);
  EXPECT_EQ(fast.stats().interrupts, slow.stats().interrupts);
  EXPECT_NE(*fast.mram().ReadData32(4), 0u);
}

TEST(FastStepTest, LockstepPumpIsCleanOnPaperAndTimerGuests) {
  // The retire-granular lockstep pump advances both machines through
  // Core::Run, so the fast_step side takes the traced and device-horizon
  // path of a plain run and the other side is the every-cycle reference
  // (msim replay --b-no-fast-step). No canonicalization: same cycles, same
  // retire stream.
  const struct {
    const char* name;
    void (*boot)(MetalSystem&);
  } kGuests[] = {{"stm_transfer", BootStmTransfer},
                 {"custom_page_tables", BootCustomPageTables},
                 {"timer_sample", [](MetalSystem& system) {
                    system.AddMcode(TimerSampleMcode());
                    ASSERT_OK(system.LoadProgramSource(kTimerSampleProgram));
                    ASSERT_OK(system.Boot());
                    StartSampleTimer(system.core());
                  }}};
  for (const auto& guest : kGuests) {
    SCOPED_TRACE(guest.name);
    CoreConfig slow_config;
    slow_config.fast_step = false;
    MetalSystem fast_system;  // defaults: fast_step on
    MetalSystem slow_system(slow_config);
    guest.boot(fast_system);
    guest.boot(slow_system);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    LockstepOptions options;
    options.granularity = CompareGranularity::kRetire;
    const auto report = RunLockstep(fast_system, slow_system, options);
    ASSERT_OK(report.status());
    EXPECT_FALSE(report->diverged) << report->summary;
    EXPECT_TRUE(report->a_finished);
    EXPECT_GT(report->retire_index, 1000u);
    EXPECT_EQ(fast_system.core().StateDigest(true), slow_system.core().StateDigest(true));
  }
}

// ---------------------------------------------------------------------------
// Invalidation matrix: every source of code mutation, traced vs per-cycle.
// ---------------------------------------------------------------------------

// Patches its own inner loop after three iterations: the stored word must
// take effect on the very next fetch.
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

TEST(PredecodeInvalidationTest, SelfModifyingStoreMatchesNoCacheReference) {
  Core traced;  // defaults: fast_step on
  Core reference(ReferenceConfig());
  std::vector<Retire> a, b;
  for (const auto& [core, retires] : {std::pair{&traced, &a}, std::pair{&reference, &b}}) {
    ASSERT_OK(core->LoadProgram(MustAssemble(kSelfModifyingProgram)));
    RecordRetires(*core, retires);
    // 3 iterations of +1, then the patched +5 for the remaining 3.
    MustHalt(*core, 18);
  }
  ExpectSameRetires(a, b);
  EXPECT_GT(traced.superblocks().stats().executions, 0u);
}

// Accumulates into MRAM data with mld/mst. The MRAM generation covers the
// code segment only, so the mst does not invalidate the mroutine's trace.
constexpr const char* kCounterMcode = R"(
    .mentry 1, count_add
  count_add:
    mld t0, 0(zero)
    add t0, t0, a0
    mst t0, 0(zero)
    mv a0, t0
    mexit
)";

constexpr const char* kCounterProgram = R"(
  _start:
    li s0, 10
    li s1, 0
  loop:
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

TEST(PredecodeInvalidationTest, MstKeepsMramGenerationAndDecodesWarm) {
  MetalSystem traced;  // defaults: fast_step on
  MetalSystem reference(ReferenceConfig());
  for (MetalSystem* s : {&traced, &reference}) {
    s->AddMcode(kCounterMcode);
    ASSERT_OK(s->LoadProgramSource(kCounterProgram));
    ASSERT_OK(s->Boot());
  }
  std::vector<Retire> a, b;
  RecordRetires(traced.core(), &a);
  RecordRetires(reference.core(), &b);
  const uint64_t gen_at_boot = traced.core().mram().generation();
  MustHalt(traced, 70);
  MustHalt(reference, 70);
  ExpectSameRetires(a, b);
  // Ten mst commits moved neither generation, so the Metal trace built on
  // the first call stayed valid for the other nine.
  EXPECT_EQ(traced.core().mram().stats().data_writes, 10u);
  EXPECT_EQ(traced.core().mram().generation(), gen_at_boot);
  EXPECT_EQ(reference.core().mram().generation(), gen_at_boot);
  EXPECT_GT(traced.core().superblocks().stats().executions, 0u);
  EXPECT_EQ(traced.core().superblocks().stats().invalidations, 0u);
}

// 400 invocations (exit 2800): long enough that mid-run corruption at a few
// thousand cycles lands while the accelerator loop is still hot.
constexpr const char* kLongCounterProgram = R"(
  _start:
    li s0, 400
    li s1, 0
  loop:
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bne s0, zero, loop
    halt s1
)";

// A traced machine and the per-cycle reference, parity off, running
// kLongCounterProgram over kCounterMcode.
struct CounterPair {
  CounterPair() : traced(Config(true)), reference(Config(false)) {
    for (MetalSystem* s : {&traced, &reference}) {
      s->AddMcode(kCounterMcode);
      EXPECT_OK(s->LoadProgramSource(kLongCounterProgram));
    }
    RecordRetires(traced.core(), &traced_retires);
    RecordRetires(reference.core(), &reference_retires);
  }
  static CoreConfig Config(bool fast_step) {
    CoreConfig config;
    config.mram_parity = false;
    config.fast_step = fast_step;
    return config;
  }
  MetalSystem traced;
  MetalSystem reference;
  std::vector<Retire> traced_retires, reference_retires;
};

TEST(PredecodeInvalidationTest, CodeCorruptionAndLoaderWriteInvalidateMramDecodes) {
  // The code-segment mutators move the generation: with parity off a flip
  // behind the write path (add -> sub at bit 30) must replace the warm
  // decode, and a loader WriteCodeWord restoring the word must replace it
  // again — traced exactly as per cycle.
  CounterPair pair;
  constexpr uint32_t kAddWord = kMramCodeBase + 4;
  auto drive = [](MetalSystem& s) -> RunResult {
    EXPECT_OK(s.Boot());
    Mram& mram = s.core().mram();
    s.Run(1500);  // the mroutine is hot
    const uint32_t add_raw = *mram.PeekCodeWord(kAddWord);
    uint64_t gen = mram.generation();
    EXPECT_TRUE(mram.CorruptCodeWord(4, 0xFFFFFFFFu, 1u << 30));
    EXPECT_GT(mram.generation(), gen);
    s.Run(1500);  // the corrupted word is fetched, decoded and executed
    gen = mram.generation();
    EXPECT_TRUE(mram.WriteCodeWord(4, add_raw));
    EXPECT_GT(mram.generation(), gen);
    return s.Run(2'000'000);
  };
  const RunResult ra = drive(pair.traced);
  const RunResult rb = drive(pair.reference);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rb.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  // The sub ran for a while, then the restored add again.
  EXPECT_NE(ra.exit_code, 2800u);
  ExpectSameRetires(pair.traced_retires, pair.reference_retires);
}

TEST(PredecodeInvalidationTest, ScrubRestoresCorruptedDecodeIdentically) {
  // With parity off, a bit flipped behind the write path silently decodes to
  // a DIFFERENT valid instruction (add -> sub at bit 30). MRAMSCRUB then
  // restores the word from the shadow copy, and both machines must go back
  // to the add at the same cycle.
  CounterPair pair;
  auto drive = [](MetalSystem& s) -> RunResult {
    EXPECT_OK(s.Boot());
    s.Run(1500);  // the mroutine is hot
    // Flip `add t0, t0, a0` (second mroutine word) into `sub`.
    EXPECT_TRUE(s.core().mram().CorruptCodeWord(4, 0xFFFFFFFFu, 1u << 30));
    s.Run(1500);  // the corrupted word is fetched, decoded and executed
    EXPECT_GT(s.core().mram().Scrub(), 0u);  // MRAMSCRUB restores + bumps gen
    return s.Run(2'000'000);
  };
  const RunResult ra = drive(pair.traced);
  const RunResult rb = drive(pair.reference);
  EXPECT_EQ(ra.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rb.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  // The corruption must actually have been observed (sub ran for a while).
  EXPECT_NE(ra.exit_code, 2800u);
  ExpectSameRetires(pair.traced_retires, pair.reference_retires);
}

TEST(PredecodeInvalidationTest, FaultEngineMramCodeFlipMatchesReference) {
  CounterPair pair;
  FaultEngine traced_engine(/*seed=*/7);
  FaultEngine reference_engine(/*seed=*/7);
  // Pinned location and bit: add -> sub, mid-run, silently (parity off).
  ASSERT_OK(traced_engine.AddSpec("mram-code@3000:at=4,bit=30"));
  ASSERT_OK(reference_engine.AddSpec("mram-code@3000:at=4,bit=30"));
  pair.traced.core().SetFaultEngine(&traced_engine);
  pair.reference.core().SetFaultEngine(&reference_engine);
  const RunResult ra = pair.traced.Run(2'000'000);
  const RunResult rb = pair.reference.Run(2'000'000);
  EXPECT_EQ(traced_engine.injections(), 1u);
  EXPECT_EQ(ra.reason, rb.reason);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_NE(ra.exit_code, 2800u);  // the flip changed the result on both
  ExpectSameRetires(pair.traced_retires, pair.reference_retires);
}

TEST(PredecodeInvalidationTest, SnapshotRestoreMidLoopResumesIdentically) {
  // The continuation retire stream of a restored machine (whose trace cache
  // starts cold) must equal the uninterrupted one.
  Core original;  // defaults: fast_step on
  ASSERT_OK(original.LoadProgram(MustAssemble(kMixedProgram)));
  original.Run(1234);  // mid-loop, traces warm
  const std::vector<uint8_t> image = SaveSnapshot(original);
  const uint64_t digest_at_save = original.StateDigest(true);

  std::vector<Retire> rest_of_original;
  RecordRetires(original, &rest_of_original);
  const RunResult ro = original.Run(2'000'000);
  EXPECT_EQ(ro.reason, RunResult::Reason::kHalted);

  // Same config restore.
  Core restored;
  ASSERT_OK(RestoreSnapshot(restored, image));
  EXPECT_EQ(restored.StateDigest(true), digest_at_save);
  std::vector<Retire> rest_of_restored;
  RecordRetires(restored, &rest_of_restored);
  const RunResult rr = restored.Run(2'000'000);
  EXPECT_EQ(rr.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rr.exit_code, ro.exit_code);
  ExpectSameRetires(rest_of_original, rest_of_restored);

  // A snapshot taken under fast_step restores into a per-cycle core (the
  // config hash deliberately excludes fast_step) and resumes identically.
  Core slow(ReferenceConfig());
  ASSERT_OK(RestoreSnapshot(slow, image));
  EXPECT_EQ(slow.StateDigest(true), digest_at_save);
  std::vector<Retire> rest_of_slow;
  RecordRetires(slow, &rest_of_slow);
  const RunResult rs = slow.Run(2'000'000);
  EXPECT_EQ(rs.reason, RunResult::Reason::kHalted);
  EXPECT_EQ(rs.exit_code, ro.exit_code);
  ExpectSameRetires(rest_of_original, rest_of_slow);
}

// ---------------------------------------------------------------------------
// Decode-trap audit: undecodable mroutine words.
// ---------------------------------------------------------------------------

TEST(PredecodeTrapTest, UndecodableMroutineWordTrapsIdenticallyCachedAndNot) {
  // With parity disabled (--no-parity), a word zeroed behind the write path
  // is fetched silently and fails decode. Whether the word enters EX via the
  // decode-stage replacement chain (fast_transition) or via a redirected
  // Metal-frontend fetch, and whether the machine steps traced or per cycle,
  // the trap must be the same illegal-instruction exception.
  auto run_one = [](bool fast_step, bool fast_transition, std::vector<Retire>* retires,
                    CoreStats* stats) -> RunResult {
    CoreConfig config;
    config.mram_parity = false;
    config.fast_transition = fast_transition;
    config.fast_step = fast_step;
    MetalSystem system(config);
    system.AddMcode(kCounterMcode);
    EXPECT_OK(system.LoadProgramSource(kCounterProgram));
    EXPECT_OK(system.Boot());
    // Zero the mroutine's FIRST word (the replacement-chain target).
    EXPECT_TRUE(system.core().mram().CorruptCodeWord(0, 0u, 0u));
    RecordRetires(system.core(), retires);
    const RunResult r = system.Run(100'000);
    *stats = system.core().stats();
    return r;
  };

  for (const bool fast_transition : {true, false}) {
    std::vector<Retire> traced_retires, reference_retires;
    CoreStats traced_stats, reference_stats;
    const RunResult traced =
        run_one(/*fast_step=*/true, fast_transition, &traced_retires, &traced_stats);
    const RunResult reference =
        run_one(/*fast_step=*/false, fast_transition, &reference_retires, &reference_stats);
    // The undelegated illegal-instruction trap from Metal mode must surface
    // the same way on both machines, at the same point in the program.
    EXPECT_EQ(traced.reason, reference.reason) << "fast_transition=" << fast_transition;
    EXPECT_EQ(traced.exit_code, reference.exit_code);
    EXPECT_EQ(traced.fatal_message, reference.fatal_message);
    EXPECT_EQ(traced_stats.exceptions, reference_stats.exceptions);
    EXPECT_EQ(traced_stats.machine_checks, reference_stats.machine_checks);
    ExpectSameRetires(traced_retires, reference_retires);
  }
}

}  // namespace
}  // namespace msim
