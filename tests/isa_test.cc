#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "isa/isa.h"
#include "support/rng.h"

namespace msim {
namespace {

std::vector<InstrKind> AllKinds() {
  std::vector<InstrKind> kinds;
  for (unsigned i = 1; i < static_cast<unsigned>(InstrKind::kCount); ++i) {
    kinds.push_back(static_cast<InstrKind>(i));
  }
  return kinds;
}

// Property: Encode(kind, fields) decodes back to the same kind and fields for
// randomized operands, for every instruction in the ISA.
class EncodeDecodeRoundTrip : public ::testing::TestWithParam<InstrKind> {};

TEST_P(EncodeDecodeRoundTrip, RoundTrips) {
  const InstrKind kind = GetParam();
  const InstrInfo& info = GetInstrInfo(kind);
  Rng rng(static_cast<uint64_t>(kind) * 7919);
  for (int trial = 0; trial < 50; ++trial) {
    const uint8_t rd = static_cast<uint8_t>(rng.Below(32));
    const uint8_t rs1 = static_cast<uint8_t>(rng.Below(32));
    const uint8_t rs2 = static_cast<uint8_t>(rng.Below(32));
    int32_t imm = 0;
    switch (info.format) {
      case InstrFormat::kI:
        imm = info.has_funct7 ? static_cast<int32_t>(rng.Below(32))        // shamt
                              : static_cast<int32_t>(rng.Below(4096)) - 2048;
        if (kind == InstrKind::kEcall) imm = 0;
        if (kind == InstrKind::kEbreak) imm = 1;
        if (kind == InstrKind::kMenter) imm = static_cast<int32_t>(rng.Below(64));
        if (kind == InstrKind::kMexit) imm = 0;
        if (kind == InstrKind::kRmr || kind == InstrKind::kWmr) {
          imm = static_cast<int32_t>(rng.Below(32));
        }
        if (kind == InstrKind::kRcr || kind == InstrKind::kWcr) {
          imm = static_cast<int32_t>(rng.Below(64));
        }
        if (kind == InstrKind::kHalt || kind == InstrKind::kFence) imm = 0;
        break;
      case InstrFormat::kS:
        imm = static_cast<int32_t>(rng.Below(4096)) - 2048;
        break;
      case InstrFormat::kB:
        imm = (static_cast<int32_t>(rng.Below(4096)) - 2048) * 2;
        break;
      case InstrFormat::kU:
        imm = static_cast<int32_t>(rng.Below(1u << 20));
        break;
      case InstrFormat::kJ:
        imm = (static_cast<int32_t>(rng.Below(1u << 20)) - (1 << 19)) * 2;
        break;
      default:
        break;
    }
    auto encoded = Encode(kind, rd, rs1, rs2, imm);
    ASSERT_TRUE(encoded.ok()) << info.mnemonic << ": " << encoded.status().ToString();
    const Decoded decoded = DecodeInstr(*encoded);
    ASSERT_EQ(decoded.kind, kind)
        << info.mnemonic << " decoded as " << decoded.info().mnemonic;
    switch (info.format) {
      case InstrFormat::kR:
        EXPECT_EQ(decoded.rd, rd);
        EXPECT_EQ(decoded.rs1, rs1);
        EXPECT_EQ(decoded.rs2, rs2);
        break;
      case InstrFormat::kI:
        EXPECT_EQ(decoded.rd, rd);
        EXPECT_EQ(decoded.rs1, rs1);
        EXPECT_EQ(decoded.imm, imm) << info.mnemonic;
        break;
      case InstrFormat::kS:
        EXPECT_EQ(decoded.rs1, rs1);
        EXPECT_EQ(decoded.rs2, rs2);
        EXPECT_EQ(decoded.imm, imm);
        break;
      case InstrFormat::kB:
        EXPECT_EQ(decoded.rs1, rs1);
        EXPECT_EQ(decoded.rs2, rs2);
        EXPECT_EQ(decoded.imm, imm);
        break;
      case InstrFormat::kU:
        EXPECT_EQ(decoded.rd, rd);
        EXPECT_EQ(decoded.imm, imm);
        break;
      case InstrFormat::kJ:
        EXPECT_EQ(decoded.rd, rd);
        EXPECT_EQ(decoded.imm, imm);
        break;
      default:
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllInstructions, EncodeDecodeRoundTrip,
                         ::testing::ValuesIn(AllKinds()),
                         [](const ::testing::TestParamInfo<InstrKind>& param_info) {
                           return std::string(GetInstrInfo(param_info.param).mnemonic);
                         });

TEST(DecodeTest, UnknownOpcodeIsIllegal) {
  EXPECT_EQ(DecodeInstr(0x00000000).kind, InstrKind::kIllegal);
  EXPECT_EQ(DecodeInstr(0xFFFFFFFF).kind, InstrKind::kIllegal);
  EXPECT_EQ(DecodeInstr(0x0000007F).kind, InstrKind::kIllegal);
}

void ExpectSameDecode(const Decoded& got, const Decoded& want) {
  EXPECT_EQ(got.kind, want.kind) << std::hex << want.raw;
  EXPECT_EQ(got.rd, want.rd) << std::hex << want.raw;
  EXPECT_EQ(got.rs1, want.rs1) << std::hex << want.raw;
  EXPECT_EQ(got.rs2, want.rs2) << std::hex << want.raw;
  EXPECT_EQ(got.imm, want.imm) << std::hex << want.raw;
  EXPECT_EQ(got.raw, want.raw);
}

TEST(DecodeMemoTest, MatchesDecodeInstrOnRandomCollidingAndZeroWords) {
  // The memo table is thread-local: a fresh thread sees it as initialized,
  // so every slot, including the one word 0 maps to, must already hold a
  // correct decode of its tag.
  std::thread([] {
    ExpectSameDecode(Decoded{}, DecodeInstr(0));
    ExpectSameDecode(DecodeMemoized(0), DecodeInstr(0));
  }).join();

  // Seeded random words, half of them with the opcode of a real instruction
  // so that every decoder path is taken, each looked up twice.
  Rng rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    uint32_t word = rng.Next32();
    if ((i & 1) != 0) {
      const auto kind = static_cast<InstrKind>(
          rng.Range(1, static_cast<uint64_t>(InstrKind::kCount) - 1));
      word = (word & ~0x7Fu) | GetInstrInfo(kind).opcode;
    }
    ExpectSameDecode(DecodeMemoized(word), DecodeInstr(word));
    ExpectSameDecode(DecodeMemoized(word), DecodeInstr(word));
  }

  // Words that share a slot evict each other, word 0 included: alternating
  // lookups must always return the decode of the word asked for.
  const auto colliding_with = [&rng](uint32_t word) {
    const uint32_t index = decode_internal::MemoIndex(word);
    for (;;) {
      const uint32_t other = rng.Next32();
      if (other != word && decode_internal::MemoIndex(other) == index) {
        return other;
      }
    }
  };
  for (uint32_t word : {0u, 0x00A50533u /* add a0, a0, a0 */, rng.Next32()}) {
    const uint32_t other = colliding_with(word);
    for (int round = 0; round < 3; ++round) {
      ExpectSameDecode(DecodeMemoized(word), DecodeInstr(word));
      ExpectSameDecode(DecodeMemoized(other), DecodeInstr(other));
    }
  }
}

TEST(DecodeTest, ImmediateBoundaries) {
  // addi x1, x0, -2048
  auto word = EncodeI(InstrKind::kAddi, 1, 0, -2048);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(DecodeInstr(*word).imm, -2048);
  // beq offset 4094 (max positive B immediate)
  word = EncodeB(InstrKind::kBeq, 1, 2, 4094);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(DecodeInstr(*word).imm, 4094);
  // jal offset -1048576 (min J immediate)
  word = EncodeJ(InstrKind::kJal, 1, -1048576);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(DecodeInstr(*word).imm, -1048576);
}

TEST(EncodeTest, RejectsOutOfRange) {
  EXPECT_FALSE(EncodeI(InstrKind::kAddi, 1, 0, 2048).ok());
  EXPECT_FALSE(EncodeI(InstrKind::kAddi, 1, 0, -2049).ok());
  EXPECT_FALSE(EncodeB(InstrKind::kBeq, 1, 2, 3).ok());  // odd offset
  EXPECT_FALSE(EncodeB(InstrKind::kBeq, 1, 2, 4096).ok());
  EXPECT_FALSE(EncodeI(InstrKind::kSlli, 1, 1, 32).ok());  // shamt > 31
  EXPECT_FALSE(EncodeU(InstrKind::kLui, 1, 1 << 20).ok());
}

TEST(EncodeTest, EcallEbreakDistinguished) {
  auto ecall = EncodeI(InstrKind::kEcall, 0, 0, 0);
  auto ebreak = EncodeI(InstrKind::kEbreak, 0, 0, 0);
  ASSERT_TRUE(ecall.ok());
  ASSERT_TRUE(ebreak.ok());
  EXPECT_EQ(DecodeInstr(*ecall).kind, InstrKind::kEcall);
  EXPECT_EQ(DecodeInstr(*ebreak).kind, InstrKind::kEbreak);
}

TEST(RegisterNamesTest, ParseGprAliases) {
  EXPECT_EQ(ParseGpr("x0"), 0);
  EXPECT_EQ(ParseGpr("zero"), 0);
  EXPECT_EQ(ParseGpr("ra"), 1);
  EXPECT_EQ(ParseGpr("sp"), 2);
  EXPECT_EQ(ParseGpr("t0"), 5);
  EXPECT_EQ(ParseGpr("s0"), 8);
  EXPECT_EQ(ParseGpr("fp"), 8);
  EXPECT_EQ(ParseGpr("a0"), 10);
  EXPECT_EQ(ParseGpr("t6"), 31);
  EXPECT_EQ(ParseGpr("x31"), 31);
  EXPECT_FALSE(ParseGpr("x32").has_value());
  EXPECT_FALSE(ParseGpr("q3").has_value());
  EXPECT_FALSE(ParseGpr("").has_value());
}

TEST(RegisterNamesTest, ParseMetalRegisters) {
  EXPECT_EQ(ParseMetalRegister("m0"), 0);
  EXPECT_EQ(ParseMetalRegister("m31"), 31);
  EXPECT_FALSE(ParseMetalRegister("m32").has_value());
  EXPECT_FALSE(ParseMetalRegister("t0").has_value());
}

TEST(RegisterNamesTest, GprNameRoundTrip) {
  for (uint8_t i = 0; i < 32; ++i) {
    EXPECT_EQ(ParseGpr(GprName(i)), i);
  }
}

TEST(InstrTableTest, MnemonicLookup) {
  EXPECT_EQ(FindInstrByMnemonic("add")->kind, InstrKind::kAdd);
  EXPECT_EQ(FindInstrByMnemonic("menter")->kind, InstrKind::kMenter);
  EXPECT_EQ(FindInstrByMnemonic("tlbwr")->kind, InstrKind::kTlbwr);
  EXPECT_EQ(FindInstrByMnemonic("nosuch"), nullptr);
}

TEST(InstrTableTest, MetalOnlyFlags) {
  // Table 1: applications invoke menter from normal mode; the rest of the
  // Metal instructions are Metal-mode only.
  EXPECT_FALSE(GetInstrInfo(InstrKind::kMenter).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kMexit).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kRmr).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kWmr).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kMld).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kMst).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kPlw).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kTlbwr).metal_only);
  EXPECT_TRUE(GetInstrInfo(InstrKind::kRcr).metal_only);
  EXPECT_FALSE(GetInstrInfo(InstrKind::kAdd).metal_only);
}

TEST(DisasmTest, RendersCommonForms) {
  EXPECT_EQ(Disassemble(*EncodeR(InstrKind::kAdd, 10, 11, 12)), "add a0, a1, a2");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kAddi, 10, 10, -1)), "addi a0, a0, -1");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kLw, 5, 2, 8)), "lw t0, 8(sp)");
  EXPECT_EQ(Disassemble(*EncodeS(InstrKind::kSw, 2, 5, 8)), "sw t0, 8(sp)");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kMenter, 0, 0, 3)), "menter 3");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kMexit, 0, 0, 0)), "mexit");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kRmr, 1, 0, 31)), "rmr ra, m31");
  EXPECT_EQ(Disassemble(*EncodeI(InstrKind::kWmr, 0, 5, 0)), "wmr m0, t0");
  EXPECT_EQ(Disassemble(0u), "illegal (0x00000000)");
}

}  // namespace
}  // namespace msim
