// Tests for the Metal extension: mode transitions, Metal registers, MRAM,
// control registers, delegation, interception, the verifier and the loader.
#include <gtest/gtest.h>

#include "cpu/creg.h"
#include "isa/decode.h"
#include "metal/loader.h"
#include "metal/mroutine.h"
#include "metal/system.h"
#include "support/strings.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

class MetalTest : public ::testing::Test {
 protected:
  void Boot(std::string_view mcode, std::string_view program,
            const CoreConfig& config = CoreConfig{}) {
    core_ = std::make_unique<Core>(config);
    MustLoadMcodeRaw(*core_, mcode);
    ASSERT_OK(core_->LoadProgram(MustAssemble(program)));
  }
  Core& core() { return *core_; }
  std::unique_ptr<Core> core_;
};

TEST_F(MetalTest, MenterRunsMroutineAndReturns) {
  Boot(R"(
      .mentry 1, add100
    add100:
      addi a0, a0, 100
      mexit
  )",
       R"(
    _start:
      li a0, 5
      menter 1
      addi a0, a0, 1
      halt a0
  )");
  MustHalt(core(), 106);
  EXPECT_EQ(core().stats().menters, 1u);
  EXPECT_EQ(core().stats().mexits, 1u);
}

TEST_F(MetalTest, NoOpMroutineHasZeroOverhead) {
  // §2.2: decode-stage replacement makes a no-op round trip free.
  const char* kMcode = R"(
      .mentry 1, noop
    noop:
      mexit
  )";
  const char* kWith = R"(
    _start:
      li t0, 2000
    loop:
      menter 1
      addi t0, t0, -1
      bnez t0, loop
      halt zero
  )";
  const char* kWithout = R"(
    _start:
      li t0, 2000
    loop:
      addi t0, t0, -1
      bnez t0, loop
      halt zero
  )";
  Boot(kMcode, kWith);
  const uint64_t with_cycles = core().Run(1'000'000).cycles;
  Boot(kMcode, kWithout);
  const uint64_t without_cycles = core().Run(1'000'000).cycles;
  EXPECT_EQ(with_cycles, without_cycles);
}

TEST_F(MetalTest, M31HoldsReturnAddressAndCanBeRedirected) {
  // kenter-style control transfer: overwrite m31, mexit jumps there.
  Boot(R"(
      .mentry 2, redirect
    redirect:
      # jump to the address in a1 instead of returning
      wmr m31, a1
      mexit
  )",
       R"(
    _start:
      la a1, elsewhere
      menter 2
      halt zero          # skipped
    elsewhere:
      li a0, 77
      halt a0
  )");
  MustHalt(core(), 77);
}

TEST_F(MetalTest, MetalRegistersPersistAcrossInvocations) {
  Boot(R"(
      .mentry 3, counter
    counter:
      rmr t0, m5
      addi t0, t0, 1
      wmr m5, t0
      mv a0, t0
      mexit
  )",
       R"(
    _start:
      menter 3
      menter 3
      menter 3
      halt a0
  )");
  MustHalt(core(), 3);
  EXPECT_EQ(core().metal().ReadMreg(5), 3u);
}

TEST_F(MetalTest, MramDataSegmentPersists) {
  Boot(R"(
      .mentry 4, bump
    bump:
      mld t0, 16(zero)
      addi t0, t0, 7
      mst t0, 16(zero)
      mv a0, t0
      mexit
  )",
       R"(
    _start:
      menter 4
      menter 4
      halt a0
  )");
  MustHalt(core(), 14);
  EXPECT_EQ(core().mram().ReadData32(16), 14u);
}

TEST_F(MetalTest, McodeDataSectionInitializesMram) {
  CoreConfig config;
  MetalSystem system(config);
  system.AddMcode(R"(
      .mentry 5, read_init
    read_init:
      mld a0, 0(zero)
      mexit
      .data
      .word 0xC0FFEE
  )");
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      menter 5
      halt a0
  )"));
  MustHalt(system, 0xC0FFEE);
}

TEST_F(MetalTest, MldOutOfBoundsIsFatal) {
  Boot(R"(
      .mentry 6, bad
    bad:
      li t0, 0x4000
      mld t1, 0(t0)      # beyond the 8 KiB data segment
      mexit
  )",
       R"(
    _start:
      menter 6
      halt zero
  )");
  const RunResult r = core().Run(100000);
  EXPECT_EQ(r.reason, RunResult::Reason::kFatal);
  EXPECT_NE(r.fatal_message.find("Metal-mode"), std::string::npos);
}

TEST_F(MetalTest, ControlRegistersScratchAndCounters) {
  Boot(R"(
      .mentry 7, crs
    crs:
      li t0, 1234
      wcr 12, t0          # scratch0
      rcr a0, 12
      rcr t1, 9           # cycle counter
      beqz t1, fail
      rcr t1, 11          # instret
      beqz t1, fail
      mexit
    fail:
      li t0, 1
      halt t0
  )",
       R"(
    _start:
      menter 7
      halt a0
  )");
  MustHalt(core(), 1234);
}

TEST_F(MetalTest, EcallDelegatesToMroutine) {
  Boot(R"(
      .mentry 9, ecall_handler
    ecall_handler:
      rcr t0, 0            # MCAUSE == 12 (ecall)
      li t1, 12
      bne t0, t1, bad
      addi a0, a0, 50
      mexit                # m31 = pc + 4: resume after the ecall
    bad:
      li t0, 99
      halt t0
  )",
       R"(
    _start:
      li a0, 1
      ecall
      halt a0
  )");
  core().metal().Delegate(ExcCause::kEcall, 9);
  MustHalt(core(), 51);
  EXPECT_EQ(core().stats().exceptions, 1u);
}

TEST_F(MetalTest, TlbMissHandlerRefillsAndRetries) {
  // A hand-rolled software TLB: identity-map the faulting page and retry.
  Boot(R"(
      .mentry 10, tlb_miss
    tlb_miss:
      rcr t0, 2            # MBADVADDR
      li t1, -4096
      and t1, t0, t1       # frame = page base (identity)
      ori t1, t1, 0x38     # R|W|X
      tlbwr t0, t1
      mexit                # retry the faulting access
  )",
       R"(
    _start:
      # enable paging via an mroutine? No: host enables below.
      la t0, value
      lw a0, 0(t0)
      halt a0
    .data
    value: .word 4242
  )");
  core().metal().Delegate(ExcCause::kTlbMissLoad, 10);
  core().metal().Delegate(ExcCause::kTlbMissStore, 10);
  core().metal().Delegate(ExcCause::kTlbMissFetch, 10);
  core().metal().WriteCreg(kCrPgEnable, 1);
  MustHalt(core(), 4242);
  EXPECT_GE(core().stats().exceptions, 2u);  // at least fetch + load misses
}

TEST_F(MetalTest, InterceptionSkipAndEmulate) {
  // Intercept stores and emulate them doubled: sw writes 2*value.
  Boot(R"(
      .mentry 11, enable
    enable:
      li t0, 0x80000023    # intercept STORE opcode
      li t1, 11
      slli t2, t1, 0       # entry 11... build target = (slot 0 << 8) | 12
      li t1, 12
      mintset t0, t1
      mexit
      .mentry 12, dbl_store
    dbl_store:
      mopr t0, 0           # rs1 value
      mopr t1, 2           # imm
      add t0, t0, t1
      mopr t1, 1           # rs2 value (store data)
      slli t1, t1, 1
      psw t1, 0(t0)
      mexit                # m31 = pc+4: skip the original store
  )",
       R"(
    _start:
      menter 11
      la t0, slot
      li t1, 21
      sw t1, 0(t0)
      lw a0, 0(t0)         # loads are NOT intercepted
      halt a0
    .data
    slot: .word 0
  )");
  MustHalt(core(), 42);
  EXPECT_EQ(core().stats().intercepts, 1u);
}

TEST_F(MetalTest, InterceptRdWritebackViaMopw) {
  // Intercept loads and return a constant through mopw.
  Boot(R"(
      .mentry 13, enable
    enable:
      li t0, 0x80000003
      li t1, 14
      mintset t0, t1
      mexit
      .mentry 14, fake_load
    fake_load:
      li t0, 1337
      mopw t0
      mexit
  )",
       R"(
    _start:
      menter 13
      la t0, slot
      lw a0, 0(t0)
      halt a0
    .data
    slot: .word 1
  )");
  MustHalt(core(), 1337);
}

TEST_F(MetalTest, InterceptDisableRestoresNormalExecution) {
  Boot(R"(
      .mentry 15, ctl
    ctl:
      beqz a0, off
      li t0, 0x80000003
      li t1, 16
      mintset t0, t1
      mexit
    off:
      li t0, 3
      li t1, 16
      mintset t0, t1
      mexit
      .mentry 16, fake
    fake:
      li t0, 5
      mopw t0
      mexit
  )",
       R"(
    _start:
      la t2, slot
      li a0, 1
      menter 15            # enable
      lw t3, 0(t2)         # -> 5
      li a0, 0
      menter 15            # disable
      lw t4, 0(t2)         # -> 9 (real memory)
      slli t3, t3, 8
      or a0, t3, t4
      halt a0
    .data
    slot: .word 9
  )");
  MustHalt(core(), (5 << 8) | 9);
}

TEST_F(MetalTest, NestedMenterFaults) {
  Boot(R"(
      .mentry 17, outer
    outer:
      menter 17          # nested entry is not architected
      mexit
  )",
       R"(
    _start:
      menter 17
      halt zero
  )");
  const RunResult r = core().Run(100000);
  EXPECT_EQ(r.reason, RunResult::Reason::kFatal);
}

TEST_F(MetalTest, MenterToUnconfiguredEntryFaults) {
  Boot(R"(
      .mentry 18, something
    something:
      mexit
  )",
       R"(
    _start:
      menter 40          # never configured
      halt zero
  )");
  const RunResult r = core().Run(100000);
  EXPECT_EQ(r.reason, RunResult::Reason::kFatal);
  EXPECT_NE(r.fatal_message.find("illegal_instruction"), std::string::npos);
}

TEST_F(MetalTest, SlowTransitionProducesSameResultButMoreCycles) {
  const char* kMcode = R"(
      .mentry 19, work
    work:
      addi a0, a0, 3
      mexit
  )";
  const char* kProgram = R"(
    _start:
      li a0, 0
      li t0, 500
    loop:
      menter 19
      addi t0, t0, -1
      bnez t0, loop
      halt a0
  )";
  Boot(kMcode, kProgram);
  const RunResult fast = core().Run(1'000'000);
  CoreConfig slow_config;
  slow_config.fast_transition = false;
  Boot(kMcode, kProgram, slow_config);
  const RunResult slow = core().Run(1'000'000);
  EXPECT_EQ(fast.exit_code, 1500u);
  EXPECT_EQ(slow.exit_code, 1500u);
  EXPECT_GT(slow.cycles, fast.cycles + 2 * 500);  // >= flush costs per call
  EXPECT_GT(core().stats().menters, 0u);
  EXPECT_EQ(core().stats().fast_replacements, 0u);
}

TEST_F(MetalTest, DramStorageConfigurationsWork) {
  for (const MroutineStorage storage :
       {MroutineStorage::kDramCached, MroutineStorage::kDramUncached}) {
    CoreConfig config;
    config.mroutine_storage = storage;
    MetalSystem system(config);
    system.AddMcode(R"(
        .mentry 20, add9
      add9:
        addi a0, a0, 9
        mld t0, 24(zero)    # handler data lives in DRAM in these configs
        add a0, a0, t0
        mexit
    )");
    system.AddBootHook([](Core& core) { return WriteHandlerData32(core, 24, 100); });
    ASSERT_OK(system.LoadProgramSource(R"(
      _start:
        li a0, 1
        menter 20
        halt a0
    )"));
    MustHalt(system, 110);
  }
}

TEST_F(MetalTest, BackToBackMexitMenterChainKeepsMetalMode) {
  // Regression test: when an mexit's resume instruction is itself a menter,
  // decode-stage replacement folds exit->enter into one op. The committed
  // mode after the chain must be Metal (the second mroutine is running) —
  // an earlier implementation applied enter-then-exit unconditionally and
  // left the machine architecturally in normal mode during the second
  // mroutine (observable through metal_mode()/metal_cycles, and it let the
  // host interleave work that Metal-mode atomicity must exclude).
  Boot(R"(
      .mentry 1, quick
    quick:
      addi s1, s1, 1
      mexit
      .mentry 2, slow
    slow:
      li t0, 400
    slow_loop:
      addi t0, t0, -1
      bnez t0, slow_loop
      mexit
  )",
       R"(
    _start:
      menter 1
      menter 2             # fetched as mroutine 1's mexit resume instruction
      halt s1
  )");
  MustHalt(core(), 1);
  // The slow mroutine runs ~1600 cycles; all of them must be Metal cycles.
  EXPECT_GT(core().stats().metal_cycles, 1000u);
  EXPECT_EQ(core().stats().menters, 2u);
  EXPECT_EQ(core().stats().mexits, 2u);
}

TEST_F(MetalTest, EmptyMroutineChainEndsInNormalMode) {
  // The converse chain: menter whose mroutine is a bare mexit (enter->exit
  // in one op). The machine must end in normal mode and keep running.
  Boot(R"(
      .mentry 1, noop
    noop:
      mexit
  )",
       R"(
    _start:
      menter 1
      li a0, 5
      halt a0
  )");
  MustHalt(core(), 5);
  EXPECT_FALSE(core().metal_mode());
}

TEST_F(MetalTest, MexitFastPathAfterWmrSeesNewM31) {
  // wmr m31 immediately before mexit must take effect (hazard ordering).
  Boot(R"(
      .mentry 21, jumper
    jumper:
      wmr m31, a1
      mexit
  )",
       R"(
    _start:
      la a1, target
      menter 21
      halt zero
    target:
      li a0, 8
      halt a0
  )");
  MustHalt(core(), 8);
}

TEST_F(MetalTest, MetalModeBypassesPaging) {
  // With paging on and an empty TLB, an mroutine can still plw anywhere.
  Boot(R"(
      .mentry 22, peek
    peek:
      li t0, 0x2000
      plw a0, 0(t0)
      lw a1, 0(t0)        # normal load in Metal mode is also physical
      add a0, a0, a1
      mexit
  )",
       R"(
    _start:
      menter 22
      halt a0
  )");
  ASSERT_TRUE(core().bus().dram().Write32(0x2000, 11));
  core().metal().WriteCreg(kCrPgEnable, 1);
  // Map the program's own pages so normal-mode fetch works: identity TLB.
  for (uint32_t page = 0; page < 8; ++page) {
    core().mmu().tlb().Insert(0x1000 + page * 4096,
                              MakePte(0x1000 + page * 4096, kPteR | kPteW | kPteX), 0);
  }
  MustHalt(core(), 22);
}

// ---- Verifier --------------------------------------------------------------

TEST(VerifierTest, AcceptsWellFormedModule) {
  CoreConfig config;
  auto module = AssembleMcode(R"(
      .mentry 1, ok
    ok:
      addi a0, a0, 1
      mexit
  )",
                              config);
  ASSERT_OK(module.status());
  EXPECT_OK(VerifyMcode(*module));
}

TEST(VerifierTest, RejectsNoEntries) {
  auto module = AssembleMcode("nop\nmexit\n", CoreConfig{});
  ASSERT_OK(module.status());
  EXPECT_FALSE(VerifyMcode(*module).ok());
}

TEST(VerifierTest, RejectsEcall) {
  auto module = AssembleMcode(R"(
      .mentry 1, bad
    bad:
      ecall
      mexit
  )",
                              CoreConfig{});
  ASSERT_OK(module.status());
  const Status status = VerifyMcode(*module);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ecall"), std::string::npos);
}

TEST(VerifierTest, RejectsFallOffEnd) {
  auto module = AssembleMcode(R"(
      .mentry 1, bad
    bad:
      addi a0, a0, 1
  )",
                              CoreConfig{});
  ASSERT_OK(module.status());
  EXPECT_FALSE(VerifyMcode(*module).ok());
}

TEST(VerifierTest, RejectsOversizedData) {
  auto module = AssembleMcode(R"(
      .mentry 1, ok
    ok:
      mexit
    .data
    .space 9000
  )",
                              CoreConfig{});
  ASSERT_OK(module.status());
  EXPECT_FALSE(VerifyMcode(*module).ok());
}

// ---- MetalSystem -----------------------------------------------------------

TEST(MetalSystemTest, BootHooksRunInOrder) {
  MetalSystem system;
  int order = 0;
  int first = 0;
  int second = 0;
  system.AddMcode(".mentry 1, e\ne: mexit\n");
  system.AddBootHook([&](Core&) {
    first = ++order;
    return Status::Ok();
  });
  system.AddBootHook([&](Core&) {
    second = ++order;
    return Status::Ok();
  });
  ASSERT_OK(system.Boot());
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_TRUE(system.booted());
}

TEST(MetalSystemTest, SymbolLookup) {
  MetalSystem system;
  ASSERT_OK(system.LoadProgramSource("_start: halt zero\nmarker: nop\n"));
  auto addr = system.Symbol("marker");
  ASSERT_OK(addr.status());
  EXPECT_GT(*addr, 0u);
  EXPECT_FALSE(system.Symbol("nope").ok());
}

TEST(MetalSystemTest, EntryAddressAfterBoot) {
  MetalSystem system;
  system.AddMcode(".mentry 2, h\nh: mexit\n");
  ASSERT_OK(system.Boot());
  auto addr = system.EntryAddress(2);
  ASSERT_OK(addr.status());
  EXPECT_EQ(*addr, kMramCodeBase);
  EXPECT_FALSE(system.EntryAddress(3).ok());
}

TEST(MetalSystemTest, BadMcodeFailsBoot) {
  MetalSystem system;
  system.AddMcode("this is not assembly");
  EXPECT_FALSE(system.Boot().ok());
}

// mld/mst offsets are bounds-checked at EX without wrapping: an offset
// within four bytes of 2^32 is out of bounds (kMramOutOfBounds, raised by the
// mroutine itself and so a double-trap machine check), exactly like one past
// the data segment, under either mroutine storage. The last word is in
// bounds.
TEST(MetalDataBoundsTest, WrappingOffsetsAreOutOfBoundsInBothStorageModes) {
  struct Access {
    const char* source;  // the access, with t0 = the base offset
    int32_t base;
    bool in_bounds;
  };
  const Access kAccesses[] = {
      {"mld t1, -4(zero)", 0, false},  {"mst t1, -4(zero)", 0, false},
      {"mld t1, 0(t0)", -4, false},    {"mst t1, 0(t0)", -4, false},
      {"mld t1, 0(t0)", 8192, false},  {"mst t1, 0(t0)", 8192, false},
      {"mld t1, 0(t0)", 8188, true},   {"mst t1, 0(t0)", 8188, true},
  };
  for (const MroutineStorage storage : {MroutineStorage::kMram, MroutineStorage::kDramCached}) {
    for (const Access& access : kAccesses) {
      SCOPED_TRACE(std::string(access.source) + " base " + std::to_string(access.base) +
                   (storage == MroutineStorage::kMram ? " (MRAM)" : " (DRAM)"));
      CoreConfig config;
      config.mroutine_storage = storage;
      MetalSystem system(config);
      system.AddMcode(StrFormat(R"(
          .mentry 6, touch
        touch:
          li t0, %d
          %s
          mexit
      )",
                                access.base, access.source));
      ASSERT_OK(system.LoadProgramSource(R"(
        _start:
          menter 6
          halt zero
      )"));
      ASSERT_OK(system.Boot());
      const RunResult r = system.Run(100000);
      Core& core = system.core();
      if (access.in_bounds) {
        EXPECT_EQ(r.reason, RunResult::Reason::kHalted);
        continue;
      }
      ASSERT_EQ(r.reason, RunResult::Reason::kFatal);
      EXPECT_EQ(core.metal().ReadCreg(kCrMcheckKind, 0, 0, 0),
                static_cast<uint32_t>(McheckKind::kDoubleTrap));
      EXPECT_EQ(core.metal().ReadCreg(kCrMcheckInfo, 0, 0, 0),
                static_cast<uint32_t>(ExcCause::kMramOutOfBounds));
      // MEPC names the access itself, which faulted at EX.
      const uint32_t mepc = core.metal().ReadCreg(kCrMepc, 0, 0, 0);
      const auto word = storage == MroutineStorage::kMram ? core.mram().PeekCodeWord(mepc)
                                                          : core.bus().dram().Read32(mepc);
      ASSERT_TRUE(word.has_value());
      const Decoded faulting = DecodeInstr(*word);
      EXPECT_TRUE(faulting.kind == InstrKind::kMld || faulting.kind == InstrKind::kMst);
    }
  }
}

}  // namespace
}  // namespace msim
