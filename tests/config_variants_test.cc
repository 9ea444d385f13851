// Configuration-variant coverage: every extension must be functionally
// identical across the three mroutine placements and with the fast-path
// ablation disabled; timing must respond monotonically to the latency knobs.
#include <gtest/gtest.h>

#include "cpu/creg.h"
#include "ext/cpt.h"
#include "ext/privilege.h"
#include "ext/stm.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

std::vector<CoreConfig> AllMetalConfigs() {
  CoreConfig mram;
  CoreConfig mram_slow;
  mram_slow.fast_transition = false;
  CoreConfig trap;
  trap.mroutine_storage = MroutineStorage::kDramCached;
  CoreConfig palcode;
  palcode.mroutine_storage = MroutineStorage::kDramUncached;
  return {mram, mram_slow, trap, palcode};
}

std::string ConfigName(const CoreConfig& config) {
  if (config.mroutine_storage == MroutineStorage::kDramCached) return "dram_cached";
  if (config.mroutine_storage == MroutineStorage::kDramUncached) return "dram_uncached";
  return config.fast_transition ? "mram_fast" : "mram_slow";
}

class StorageVariantTest : public ::testing::TestWithParam<int> {
 protected:
  CoreConfig config() const { return AllMetalConfigs()[GetParam()]; }
};

TEST_P(StorageVariantTest, PrivilegeSyscallsWork) {
  MetalSystem system(config());
  const Program program = MustAssemble(R"(
    _start:
      li a0, 0
      li a1, 7
      li a2, 8
      menter 8
      halt a0
    sys_add:
      add a0, a1, a2
      menter 9
    kfault:
      li a0, 0xEE
      halt a0
    .data
    syscall_table: .word sys_add
  )");
  ASSERT_OK(PrivilegeExtension::Install(system, program.symbols.at("syscall_table"), 1,
                                        program.symbols.at("kfault")));
  ASSERT_OK(system.LoadProgram(program));
  MustHalt(system, 15);
}

TEST_P(StorageVariantTest, CustomPageTableWalkerWorks) {
  MetalSystem system(config());
  ASSERT_OK(CustomPageTable::Install(system, 0));
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      la t0, value
      lw a0, 0(t0)
      halt a0
    .data
    value: .word 777
  )"));
  ASSERT_OK(system.Boot());
  Core& core = system.core();
  CustomPageTable cpt(core, 0x00400000, 0x00100000);
  const uint32_t root = *cpt.CreateAddressSpace();
  for (uint32_t page = 0; page < 16; ++page) {
    ASSERT_OK(cpt.Map(root, page * 4096, page * 4096, kPteR | kPteW | kPteX));
  }
  for (uint32_t page = 0; page < 16; ++page) {
    const uint32_t addr = 0x00100000 + page * 4096;
    ASSERT_OK(cpt.Map(root, addr, addr, kPteR | kPteW));
  }
  ASSERT_OK(cpt.Activate(root));
  core.metal().WriteCreg(kCrPgEnable, 1);
  MustHalt(system, 777);
}

TEST_P(StorageVariantTest, StmCommitWorks) {
  MetalSystem system(config());
  ASSERT_OK(StmExtension::Install(system, 0x00700000, 0x00704000, 1024));
  ASSERT_OK(system.LoadProgramSource(R"(
    .equ SHARED, 0x00600000
    _start:
      la a0, on_abort
      menter 24
      li t5, SHARED
      lw t6, 0(t5)
      addi t6, t6, 5
      sw t6, 0(t5)
      menter 27
      li t5, SHARED
      lw a0, 0(t5)
      halt a0
    on_abort:
      li a0, 0xBB
      halt a0
  )"));
  ASSERT_OK(system.Boot());
  ASSERT_TRUE(system.core().bus().dram().Write32(0x00600000, 37));
  MustHalt(system, 42);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, StorageVariantTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return ConfigName(AllMetalConfigs()[param_info.param]);
                         });

// ---- Timing monotonicity ---------------------------------------------------

uint64_t CyclesFor(const CoreConfig& config) {
  MetalSystem system(config);
  system.AddMcode(R"(
      .mentry 1, work
    work:
      addi a1, a1, 1
      mexit
  )");
  EXPECT_OK(system.LoadProgramSource(R"(
    _start:
      li s0, 300
      la s2, buffer
    loop:
      menter 1
      lw t1, 0(s2)
      addi t1, t1, 1
      sw t1, 0(s2)
      addi s2, s2, 64      # a fresh cache line every iteration
      addi s0, s0, -1
      bnez s0, loop
      halt zero
    .data
    buffer: .space 32768
  )"));
  const RunResult result = system.Run(10'000'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  return result.cycles;
}

TEST(TimingMonotonicityTest, SlowerDramNeverSpeedsUp) {
  uint64_t previous = 0;
  for (const uint32_t dram : {5u, 10u, 20u, 40u, 80u}) {
    CoreConfig config;
    config.dram_latency = dram;
    const uint64_t cycles = CyclesFor(config);
    EXPECT_GE(cycles, previous) << "dram_latency " << dram;
    previous = cycles;
  }
}

TEST(TimingMonotonicityTest, FastTransitionNeverHurts) {
  CoreConfig fast;
  CoreConfig slow;
  slow.fast_transition = false;
  EXPECT_LE(CyclesFor(fast), CyclesFor(slow));
}

TEST(TimingMonotonicityTest, MramNeverSlowerThanDramHandlers) {
  CoreConfig mram;
  CoreConfig trap;
  trap.mroutine_storage = MroutineStorage::kDramCached;
  CoreConfig palcode;
  palcode.mroutine_storage = MroutineStorage::kDramUncached;
  const uint64_t mram_cycles = CyclesFor(mram);
  const uint64_t trap_cycles = CyclesFor(trap);
  const uint64_t palcode_cycles = CyclesFor(palcode);
  EXPECT_LE(mram_cycles, trap_cycles);
  EXPECT_LE(trap_cycles, palcode_cycles);
}

TEST(TimingMonotonicityTest, BiggerCachesNeverHurt) {
  uint64_t previous = UINT64_MAX;
  for (const uint32_t lines : {16u, 64u, 256u}) {
    CoreConfig config;
    config.icache_lines = lines;
    config.dcache_lines = lines;
    const uint64_t cycles = CyclesFor(config);
    EXPECT_LE(cycles, previous) << "cache lines " << lines;
    previous = cycles;
  }
}

// ---- Disassembler coverage --------------------------------------------------

class DisasmCoverage : public ::testing::TestWithParam<int> {};

TEST_P(DisasmCoverage, EveryInstructionRendersItsMnemonic) {
  const InstrKind kind = static_cast<InstrKind>(GetParam());
  const InstrInfo& info = GetInstrInfo(kind);
  // Build a representative encoding.
  int32_t imm = 0;
  if (kind == InstrKind::kEbreak) imm = 1;
  auto word = Encode(kind, 1, 2, 3, imm);
  if (!word.ok()) {
    word = Encode(kind, 1, 2, 3, 4);  // formats needing a non-zero immediate
  }
  ASSERT_TRUE(word.ok()) << info.mnemonic;
  const std::string text = Disassemble(*word);
  EXPECT_NE(text.find(info.mnemonic), std::string::npos) << text;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DisasmCoverage,
                         ::testing::Range(1, static_cast<int>(InstrKind::kCount)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::string(
                               GetInstrInfo(static_cast<InstrKind>(param_info.param)).mnemonic);
                         });

}  // namespace
}  // namespace msim
