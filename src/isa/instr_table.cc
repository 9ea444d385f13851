#include <array>
#include <cstring>

#include "isa/isa.h"
#include "support/strings.h"

namespace msim {
namespace {

constexpr InstrInfo MakeInfo(InstrKind kind, const char* mnemonic, InstrFormat format,
                             uint32_t opcode, int funct3, int funct7, bool metal_only,
                             bool is_load, bool is_store, bool is_branch, bool is_jump,
                             bool writes_rd) {
  InstrInfo info;
  info.kind = kind;
  info.mnemonic = mnemonic;
  info.format = format;
  info.opcode = opcode;
  info.funct3 = funct3 >= 0 ? static_cast<uint32_t>(funct3) : 0;
  info.funct7 = funct7 >= 0 ? static_cast<uint32_t>(funct7) : 0;
  info.has_funct3 = funct3 >= 0;
  info.has_funct7 = funct7 >= 0;
  info.metal_only = metal_only;
  info.is_load = is_load;
  info.is_store = is_store;
  info.is_branch = is_branch;
  info.is_jump = is_jump;
  info.writes_rd = writes_rd;
  return info;
}

// Shorthands: L=load S=store B=branch J=jump W=writes rd M=metal-only.
constexpr InstrInfo Base(InstrKind k, const char* m, InstrFormat f, uint32_t op, int f3, int f7,
                         bool L = false, bool S = false, bool B = false, bool J = false,
                         bool W = false) {
  return MakeInfo(k, m, f, op, f3, f7, /*metal_only=*/false, L, S, B, J, W);
}
constexpr InstrInfo Metal(InstrKind k, const char* m, InstrFormat f, uint32_t op, int f3, int f7,
                          bool L = false, bool S = false, bool W = false) {
  return MakeInfo(k, m, f, op, f3, f7, /*metal_only=*/true, L, S, /*B=*/false, /*J=*/false, W);
}
// Memory access width in bytes, and sign extension for narrow loads.
constexpr InstrInfo Sized(InstrInfo info, uint8_t size, bool load_signed = false) {
  info.mem_size = size;
  info.load_signed = load_signed;
  return info;
}

using K = InstrKind;
using F = InstrFormat;

constexpr std::array<InstrInfo, static_cast<size_t>(InstrKind::kCount)> BuildTable() {
  std::array<InstrInfo, static_cast<size_t>(InstrKind::kCount)> t{};
  auto set = [&t](InstrInfo info) { t[static_cast<size_t>(info.kind)] = info; };

  set(MakeInfo(K::kIllegal, "illegal", F::kNone, 0, -1, -1, false, false, false, false, false,
               false));
  // RV32I base.
  set(Base(K::kLui, "lui", F::kU, kOpLui, -1, -1, false, false, false, false, true));
  set(Base(K::kAuipc, "auipc", F::kU, kOpAuipc, -1, -1, false, false, false, false, true));
  set(Base(K::kJal, "jal", F::kJ, kOpJal, -1, -1, false, false, false, true, true));
  set(Base(K::kJalr, "jalr", F::kI, kOpJalr, 0, -1, false, false, false, true, true));
  set(Base(K::kBeq, "beq", F::kB, kOpBranch, 0, -1, false, false, true));
  set(Base(K::kBne, "bne", F::kB, kOpBranch, 1, -1, false, false, true));
  set(Base(K::kBlt, "blt", F::kB, kOpBranch, 4, -1, false, false, true));
  set(Base(K::kBge, "bge", F::kB, kOpBranch, 5, -1, false, false, true));
  set(Base(K::kBltu, "bltu", F::kB, kOpBranch, 6, -1, false, false, true));
  set(Base(K::kBgeu, "bgeu", F::kB, kOpBranch, 7, -1, false, false, true));
  set(Sized(Base(K::kLb, "lb", F::kI, kOpLoad, 0, -1, true, false, false, false, true), 1, true));
  set(Sized(Base(K::kLh, "lh", F::kI, kOpLoad, 1, -1, true, false, false, false, true), 2, true));
  set(Sized(Base(K::kLw, "lw", F::kI, kOpLoad, 2, -1, true, false, false, false, true), 4));
  set(Sized(Base(K::kLbu, "lbu", F::kI, kOpLoad, 4, -1, true, false, false, false, true), 1));
  set(Sized(Base(K::kLhu, "lhu", F::kI, kOpLoad, 5, -1, true, false, false, false, true), 2));
  set(Sized(Base(K::kSb, "sb", F::kS, kOpStore, 0, -1, false, true), 1));
  set(Sized(Base(K::kSh, "sh", F::kS, kOpStore, 1, -1, false, true), 2));
  set(Sized(Base(K::kSw, "sw", F::kS, kOpStore, 2, -1, false, true), 4));
  set(Base(K::kAddi, "addi", F::kI, kOpImm, 0, -1, false, false, false, false, true));
  set(Base(K::kSlti, "slti", F::kI, kOpImm, 2, -1, false, false, false, false, true));
  set(Base(K::kSltiu, "sltiu", F::kI, kOpImm, 3, -1, false, false, false, false, true));
  set(Base(K::kXori, "xori", F::kI, kOpImm, 4, -1, false, false, false, false, true));
  set(Base(K::kOri, "ori", F::kI, kOpImm, 6, -1, false, false, false, false, true));
  set(Base(K::kAndi, "andi", F::kI, kOpImm, 7, -1, false, false, false, false, true));
  set(Base(K::kSlli, "slli", F::kI, kOpImm, 1, 0x00, false, false, false, false, true));
  set(Base(K::kSrli, "srli", F::kI, kOpImm, 5, 0x00, false, false, false, false, true));
  set(Base(K::kSrai, "srai", F::kI, kOpImm, 5, 0x20, false, false, false, false, true));
  set(Base(K::kAdd, "add", F::kR, kOpReg, 0, 0x00, false, false, false, false, true));
  set(Base(K::kSub, "sub", F::kR, kOpReg, 0, 0x20, false, false, false, false, true));
  set(Base(K::kSll, "sll", F::kR, kOpReg, 1, 0x00, false, false, false, false, true));
  set(Base(K::kSlt, "slt", F::kR, kOpReg, 2, 0x00, false, false, false, false, true));
  set(Base(K::kSltu, "sltu", F::kR, kOpReg, 3, 0x00, false, false, false, false, true));
  set(Base(K::kXor, "xor", F::kR, kOpReg, 4, 0x00, false, false, false, false, true));
  set(Base(K::kSrl, "srl", F::kR, kOpReg, 5, 0x00, false, false, false, false, true));
  set(Base(K::kSra, "sra", F::kR, kOpReg, 5, 0x20, false, false, false, false, true));
  set(Base(K::kOr, "or", F::kR, kOpReg, 6, 0x00, false, false, false, false, true));
  set(Base(K::kAnd, "and", F::kR, kOpReg, 7, 0x00, false, false, false, false, true));
  set(Base(K::kFence, "fence", F::kI, kOpMiscMem, 0, -1));
  set(Base(K::kEcall, "ecall", F::kI, kOpSystem, 0, -1));
  set(Base(K::kEbreak, "ebreak", F::kI, kOpSystem, 0, -1));
  // M extension.
  set(Base(K::kMul, "mul", F::kR, kOpReg, 0, 0x01, false, false, false, false, true));
  set(Base(K::kMulh, "mulh", F::kR, kOpReg, 1, 0x01, false, false, false, false, true));
  set(Base(K::kMulhsu, "mulhsu", F::kR, kOpReg, 2, 0x01, false, false, false, false, true));
  set(Base(K::kMulhu, "mulhu", F::kR, kOpReg, 3, 0x01, false, false, false, false, true));
  set(Base(K::kDiv, "div", F::kR, kOpReg, 4, 0x01, false, false, false, false, true));
  set(Base(K::kDivu, "divu", F::kR, kOpReg, 5, 0x01, false, false, false, false, true));
  set(Base(K::kRem, "rem", F::kR, kOpReg, 6, 0x01, false, false, false, false, true));
  set(Base(K::kRemu, "remu", F::kR, kOpReg, 7, 0x01, false, false, false, false, true));
  // Metal core (paper Table 1). menter is deliberately NOT metal-only: normal
  // mode applications invoke it to enter Metal mode.
  set(Base(K::kMenter, "menter", F::kI, kOpMetal, 0, -1));
  set(Metal(K::kMexit, "mexit", F::kI, kOpMetal, 1, -1));
  set(Metal(K::kRmr, "rmr", F::kI, kOpMetal, 2, -1, false, false, true));
  set(Metal(K::kWmr, "wmr", F::kI, kOpMetal, 3, -1));
  set(Sized(Metal(K::kMld, "mld", F::kI, kOpMetal, 4, -1, true, false, true), 4));
  set(Sized(Metal(K::kMst, "mst", F::kS, kOpMetal, 5, -1, false, true), 4));
  set(Base(K::kHalt, "halt", F::kI, kOpMetal, 6, -1));
  // Metal-mode architectural features (paper §2.3).
  set(Sized(Metal(K::kPlw, "plw", F::kI, kOpMetalArch, 0, -1, true, false, true), 4));
  set(Sized(Metal(K::kPsw, "psw", F::kS, kOpMetalArch, 1, -1, false, true), 4));
  set(Metal(K::kTlbwr, "tlbwr", F::kR, kOpMetalArch, 2, 0x00));
  set(Metal(K::kTlbinv, "tlbinv", F::kR, kOpMetalArch, 2, 0x01));
  set(Metal(K::kTlbflush, "tlbflush", F::kR, kOpMetalArch, 2, 0x02));
  set(Metal(K::kTlbrd, "tlbrd", F::kR, kOpMetalArch, 2, 0x03, false, false, true));
  set(Metal(K::kMintset, "mintset", F::kR, kOpMetalArch, 2, 0x04));
  set(Metal(K::kMopr, "mopr", F::kR, kOpMetalArch, 2, 0x05, false, false, true));
  set(Metal(K::kMopw, "mopw", F::kR, kOpMetalArch, 2, 0x06));
  set(Metal(K::kRcr, "rcr", F::kI, kOpMetalArch, 3, -1, false, false, true));
  set(Metal(K::kWcr, "wcr", F::kI, kOpMetalArch, 4, -1));
  return t;
}

constexpr const char* kGprNames[32] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

}  // namespace

constexpr std::array<InstrInfo, static_cast<size_t>(InstrKind::kCount)> kInstrTable =
    BuildTable();

const InstrInfo* FindInstrByMnemonic(std::string_view mnemonic) {
  for (const InstrInfo& info : kInstrTable) {
    if (info.kind != InstrKind::kIllegal && mnemonic == info.mnemonic) {
      return &info;
    }
  }
  return nullptr;
}

std::optional<uint8_t> ParseGpr(std::string_view name) {
  if (name.size() >= 2 && (name[0] == 'x' || name[0] == 'X')) {
    const auto index = ParseInt(name.substr(1));
    if (index && *index >= 0 && *index < 32) {
      return static_cast<uint8_t>(*index);
    }
    // "x" followed by a non-register suffix falls through to ABI names below
    // (no ABI name starts with 'x', so this will return nullopt).
  }
  for (uint8_t i = 0; i < 32; ++i) {
    if (name == kGprNames[i]) {
      return i;
    }
  }
  if (name == "fp") {
    return 8;  // frame pointer alias for s0
  }
  return std::nullopt;
}

std::optional<uint8_t> ParseMetalRegister(std::string_view name) {
  if (name.size() < 2 || (name[0] != 'm' && name[0] != 'M')) {
    return std::nullopt;
  }
  const auto index = ParseInt(name.substr(1));
  if (index && *index >= 0 && *index < static_cast<int64_t>(kNumMetalRegisters)) {
    return static_cast<uint8_t>(*index);
  }
  return std::nullopt;
}

std::string_view GprName(uint8_t index) { return kGprNames[index & 31]; }

}  // namespace msim
