// Property-based testing: the pipelined core must agree with a simple
// unpipelined reference interpreter on randomized programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "isa/encoding.h"
#include "support/rng.h"
#include "support/strings.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// Minimal golden-model executor for straight-line ALU/memory programs.
class ReferenceModel {
 public:
  std::array<uint32_t, 32> regs{};
  std::vector<uint8_t> memory;

  explicit ReferenceModel(size_t mem_size) : memory(mem_size, 0) {}

  void Execute(const Decoded& d) {
    const uint32_t a = regs[d.rs1];
    const uint32_t b = regs[d.rs2];
    const int32_t sa = static_cast<int32_t>(a);
    const int32_t sb = static_cast<int32_t>(b);
    const uint32_t imm = static_cast<uint32_t>(d.imm);
    uint32_t result = 0;
    bool writes = true;
    switch (d.kind) {
      case InstrKind::kAddi: result = a + imm; break;
      case InstrKind::kSlti: result = sa < d.imm ? 1 : 0; break;
      case InstrKind::kSltiu: result = a < imm ? 1 : 0; break;
      case InstrKind::kXori: result = a ^ imm; break;
      case InstrKind::kOri: result = a | imm; break;
      case InstrKind::kAndi: result = a & imm; break;
      case InstrKind::kSlli: result = a << (imm & 31); break;
      case InstrKind::kSrli: result = a >> (imm & 31); break;
      case InstrKind::kSrai: result = static_cast<uint32_t>(sa >> (imm & 31)); break;
      case InstrKind::kAdd: result = a + b; break;
      case InstrKind::kSub: result = a - b; break;
      case InstrKind::kSll: result = a << (b & 31); break;
      case InstrKind::kSlt: result = sa < sb ? 1 : 0; break;
      case InstrKind::kSltu: result = a < b ? 1 : 0; break;
      case InstrKind::kXor: result = a ^ b; break;
      case InstrKind::kSrl: result = a >> (b & 31); break;
      case InstrKind::kSra: result = static_cast<uint32_t>(sa >> (b & 31)); break;
      case InstrKind::kOr: result = a | b; break;
      case InstrKind::kAnd: result = a & b; break;
      case InstrKind::kMul: result = a * b; break;
      case InstrKind::kMulh:
        result = static_cast<uint32_t>((static_cast<int64_t>(sa) * sb) >> 32);
        break;
      case InstrKind::kMulhu:
        result = static_cast<uint32_t>((static_cast<uint64_t>(a) * b) >> 32);
        break;
      case InstrKind::kMulhsu:
        result = static_cast<uint32_t>((static_cast<int64_t>(sa) * static_cast<uint64_t>(b)) >>
                                       32);
        break;
      case InstrKind::kDiv:
        result = b == 0 ? 0xFFFFFFFF
                 : (sa == INT32_MIN && sb == -1) ? static_cast<uint32_t>(INT32_MIN)
                                                 : static_cast<uint32_t>(sa / sb);
        break;
      case InstrKind::kDivu: result = b == 0 ? 0xFFFFFFFF : a / b; break;
      case InstrKind::kRem:
        result = b == 0 ? a : (sa == INT32_MIN && sb == -1) ? 0 : static_cast<uint32_t>(sa % sb);
        break;
      case InstrKind::kRemu: result = b == 0 ? a : a % b; break;
      case InstrKind::kLui: result = imm << 12; break;
      case InstrKind::kLb: result = static_cast<uint32_t>(static_cast<int8_t>(Load(a + imm, 1)));
        break;
      case InstrKind::kLbu: result = Load(a + imm, 1); break;
      case InstrKind::kLh:
        result = static_cast<uint32_t>(static_cast<int16_t>(Load(a + imm, 2)));
        break;
      case InstrKind::kLhu: result = Load(a + imm, 2); break;
      case InstrKind::kLw: result = Load(a + imm, 4); break;
      case InstrKind::kSb: Store(a + imm, 1, b); writes = false; break;
      case InstrKind::kSh: Store(a + imm, 2, b); writes = false; break;
      case InstrKind::kSw: Store(a + imm, 4, b); writes = false; break;
      default:  // includes jal zero, .+4 and fence: no register effect
        writes = false;
        break;
    }
    if (writes && d.rd != 0) {
      regs[d.rd] = result;
    }
  }

 private:
  // Little-endian accesses of `size` bytes.
  uint32_t Load(uint32_t addr, int size) const {
    uint32_t value = 0;
    for (int i = 0; i < size; ++i) {
      value |= static_cast<uint32_t>(memory[addr + i]) << (8 * i);
    }
    return value;
  }
  void Store(uint32_t addr, int size, uint32_t value) {
    for (int i = 0; i < size; ++i) {
      memory[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
};

// R-type kinds; the last eight are the M extension.
constexpr InstrKind kAluR[] = {
    InstrKind::kAdd,  InstrKind::kSub,  InstrKind::kSll,  InstrKind::kSlt,
    InstrKind::kSltu, InstrKind::kXor,  InstrKind::kSrl,  InstrKind::kSra,
    InstrKind::kOr,   InstrKind::kAnd,  InstrKind::kMul,  InstrKind::kMulh,
    InstrKind::kMulhu, InstrKind::kMulhsu, InstrKind::kDiv, InstrKind::kDivu,
    InstrKind::kRem,  InstrKind::kRemu,
};
constexpr InstrKind kAluI[] = {
    InstrKind::kAddi, InstrKind::kSlti, InstrKind::kSltiu, InstrKind::kXori,
    InstrKind::kOri,  InstrKind::kAndi, InstrKind::kSlli,  InstrKind::kSrli,
    InstrKind::kSrai,
};

constexpr InstrKind kLoads[] = {
    InstrKind::kLb, InstrKind::kLbu, InstrKind::kLh, InstrKind::kLhu, InstrKind::kLw,
};
constexpr InstrKind kStores[] = {InstrKind::kSb, InstrKind::kSh, InstrKind::kSw};

// Access width of a load or store, for aligned offsets.
int32_t AccessSize(InstrKind kind) {
  switch (kind) {
    case InstrKind::kLb:
    case InstrKind::kLbu:
    case InstrKind::kSb:
      return 1;
    case InstrKind::kLh:
    case InstrKind::kLhu:
    case InstrKind::kSh:
      return 2;
    default:
      return 4;
  }
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, CoreMatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr uint32_t kBufferBase = 0x00200000;
  constexpr uint32_t kBufferWords = 64;

  // Generate a random program of ALU and memory ops. x1 is reserved as the
  // buffer base so loads/stores stay in bounds; x0 stays zero. A
  // `jal zero, .+4` at most every 8 words refills the pipeline, so the trace
  // tier enters traces throughout, not only in the first 64 words. (A trace
  // stops at the first cold icache line, and straight-line code runs once,
  // so denser refills keep most of each line traced.)
  std::vector<uint32_t> words;
  auto reg = [&rng]() {
    uint8_t r = static_cast<uint8_t>(rng.Below(32));
    return r == 1 ? uint8_t{2} : r;  // never clobber x1 (buffer base)
  };
  // Loads one of 0, -1, INT32_MIN, INT32_MAX into rd.
  auto edge_operand = [&](uint8_t rd) {
    switch (rng.Below(4)) {
      case 0:
        words.push_back(*EncodeI(InstrKind::kAddi, rd, 0, 0));
        break;
      case 1:
        words.push_back(*EncodeI(InstrKind::kAddi, rd, 0, -1));
        break;
      case 2:
        words.push_back(*EncodeU(InstrKind::kLui, rd, 0x80000));
        break;
      default:
        words.push_back(*EncodeU(InstrKind::kLui, rd, 0x80000));
        words.push_back(*EncodeI(InstrKind::kAddi, rd, rd, -1));
        break;
    }
  };
  const int length = 200 + static_cast<int>(rng.Below(200));
  size_t next_jump = rng.Range(1, 8);
  while (words.size() < static_cast<size_t>(length)) {
    if (words.size() >= next_jump) {
      words.push_back(*EncodeJ(InstrKind::kJal, 0, 4));
      next_jump = words.size() + rng.Range(1, 8);
      continue;
    }
    const int pick = static_cast<int>(rng.Below(12));
    if (pick < 4) {
      const InstrKind kind = kAluR[rng.Below(std::size(kAluR))];
      words.push_back(*EncodeR(kind, reg(), reg(), reg()));
    } else if (pick < 6) {
      const InstrKind kind = kAluI[rng.Below(std::size(kAluI))];
      const bool shift = kind == InstrKind::kSlli || kind == InstrKind::kSrli ||
                         kind == InstrKind::kSrai;
      const int32_t imm = shift ? static_cast<int32_t>(rng.Below(32))
                                : static_cast<int32_t>(rng.Below(4096)) - 2048;
      words.push_back(*EncodeI(kind, reg(), reg(), imm));
    } else if (pick < 7) {
      words.push_back(
          *EncodeU(InstrKind::kLui, reg(), static_cast<int32_t>(rng.Below(1 << 20))));
    } else if (pick < 8) {
      // Edge operands into an M-extension op: division overflow
      // (INT32_MIN / -1), divide-by-zero and the mulh sign cases.
      const uint8_t a = reg();
      const uint8_t b = reg();
      edge_operand(a);
      edge_operand(b);
      const auto muldiv = std::span(kAluR).last<8>();
      words.push_back(*EncodeR(muldiv[rng.Below(muldiv.size())], reg(), a, b));
    } else if (pick < 10) {
      const InstrKind kind = kLoads[rng.Below(std::size(kLoads))];
      const int32_t size = AccessSize(kind);
      const int32_t offset =
          static_cast<int32_t>(rng.Below(kBufferWords * 4 / size)) * size;
      words.push_back(*EncodeI(kind, reg(), 1, offset));
    } else if (pick < 11) {
      const InstrKind kind = kStores[rng.Below(std::size(kStores))];
      const int32_t size = AccessSize(kind);
      const int32_t offset =
          static_cast<int32_t>(rng.Below(kBufferWords * 4 / size)) * size;
      words.push_back(*EncodeS(kind, 1, reg(), offset));
    } else {
      words.push_back(*EncodeI(InstrKind::kFence, 0, 0, 0));
    }
  }

  // Reference execution.
  ReferenceModel ref(kBufferBase + kBufferWords * 4 + 64);
  ref.regs[1] = kBufferBase;
  for (const uint32_t word : words) {
    ref.Execute(DecodeInstr(word));
  }

  Program program;
  program.text.base = 0x1000;
  for (const uint32_t word : words) {
    for (int b = 0; b < 4; ++b) {
      program.text.bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
    }
  }
  const uint32_t halt_word = *EncodeI(InstrKind::kHalt, 0, 0, 0);
  for (int b = 0; b < 4; ++b) {
    program.text.bytes.push_back(static_cast<uint8_t>(halt_word >> (8 * b)));
  }
  program.entry = program.text.base;

  // Pipelined execution, traced and per cycle: both match the reference,
  // and retire the same instructions at the same cycles.
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> retires;  // (cycle, pc)
  for (const bool fast_step : {true, false}) {
    SCOPED_TRACE(fast_step ? "fast_step on" : "fast_step off");
    CoreConfig config;
    config.fast_step = fast_step;
    Core core(config);
    ASSERT_OK(core.LoadProgram(program));
    core.WriteReg(1, kBufferBase);
    auto& stream = retires.emplace_back();
    core.SetRetireTrace([&stream](const Core::RetireEvent& event) {
      stream.emplace_back(event.cycle, event.pc);
    });
    const RunResult result = core.Run(1'000'000);
    ASSERT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;

    for (uint8_t r = 0; r < 32; ++r) {
      EXPECT_EQ(core.ReadReg(r), ref.regs[r]) << "register x" << int(r);
    }
    for (uint32_t w = 0; w < kBufferWords; ++w) {
      uint32_t ref_word = 0;
      for (int b = 0; b < 4; ++b) {
        ref_word |= static_cast<uint32_t>(ref.memory[kBufferBase + 4 * w + b]) << (8 * b);
      }
      EXPECT_EQ(core.bus().dram().Read32(kBufferBase + 4 * w), ref_word) << "word " << w;
    }
    if (fast_step) {
      EXPECT_GE(2 * core.superblocks().stats().instructions, core.stats().instret)
          << "under half of the run retired in traces";
    }
  }
  ASSERT_EQ(retires[0].size(), retires[1].size());
  const auto [traced, percycle] = std::mismatch(retires[0].begin(), retires[0].end(),
                                                retires[1].begin());
  EXPECT_TRUE(traced == retires[0].end())
      << "retire " << (traced - retires[0].begin()) << ": traced cycle " << traced->first
      << " pc 0x" << std::hex << traced->second << ", per-cycle cycle " << std::dec
      << percycle->first << " pc 0x" << std::hex << percycle->second;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range<uint64_t>(1, 25));

// Branch-heavy property: computed sums through random taken/not-taken
// branches must match a closed-form value.
class BranchPatternTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BranchPatternTest, BranchMazeMatchesExpectation) {
  Rng rng(GetParam() * 97 + 13);
  // Build a chain of blocks; each block conditionally skips an addi with a
  // distinct power of two, based on a pseudo-random bit both sides compute.
  std::string source = "_start:\n  li a0, 0\n";
  uint32_t expected = 0;
  for (int i = 0; i < 24; ++i) {
    const bool take = rng.Chance(1, 2);
    const uint32_t delta = 1u << i;
    source += StrFormat("  li t0, %d\n", take ? 1 : 0);
    source += StrFormat("  beqz t0, skip%d\n", i);
    source += StrFormat("  li t1, 0x%x\n  add a0, a0, t1\n", delta);
    source += StrFormat("skip%d:\n", i);
    if (take) {
      expected += delta;
    }
  }
  source += "  halt a0\n";
  Core core;
  ASSERT_OK(core.LoadProgram(MustAssemble(source)));
  const RunResult result = core.Run(1'000'000);
  ASSERT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  EXPECT_EQ(result.exit_code, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchPatternTest, ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace msim
