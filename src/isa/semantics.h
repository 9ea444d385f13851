// RV32IM execution semantics: the one definition of every register result,
// branch condition and control-transfer target. Both execution tiers call
// these. Core::ExecuteAluOp passes the runtime kind; each superblock executor
// label passes a compile-time kind, so the switch folds away there. Memory
// access widths and load signedness are InstrInfo fields (instr_table.cc).
#ifndef MSIM_ISA_SEMANTICS_H_
#define MSIM_ISA_SEMANTICS_H_

#include <cstdint>

#include "isa/isa.h"

namespace msim {

// The value an RV32IM instruction writes to rd: OP/OP-IMM and M-extension
// results, the lui/auipc constants and the jal/jalr link. 0 for other kinds.
[[gnu::always_inline]] inline constexpr uint32_t AluResult(InstrKind kind, uint32_t a,
                                                           uint32_t b, uint32_t imm,
                                                           uint32_t pc) {
  using K = InstrKind;
  const int32_t sa = static_cast<int32_t>(a);
  const int32_t sb = static_cast<int32_t>(b);
  switch (kind) {
    case K::kLui: return imm << 12;
    case K::kAuipc: return pc + (imm << 12);
    case K::kJal:
    case K::kJalr: return pc + 4;
    case K::kAddi: return a + imm;
    case K::kSlti: return sa < static_cast<int32_t>(imm) ? 1 : 0;
    case K::kSltiu: return a < imm ? 1 : 0;
    case K::kXori: return a ^ imm;
    case K::kOri: return a | imm;
    case K::kAndi: return a & imm;
    case K::kSlli: return a << (imm & 31);
    case K::kSrli: return a >> (imm & 31);
    case K::kSrai: return static_cast<uint32_t>(sa >> (imm & 31));
    case K::kAdd: return a + b;
    case K::kSub: return a - b;
    case K::kSll: return a << (b & 31);
    case K::kSlt: return sa < sb ? 1 : 0;
    case K::kSltu: return a < b ? 1 : 0;
    case K::kXor: return a ^ b;
    case K::kSrl: return a >> (b & 31);
    case K::kSra: return static_cast<uint32_t>(sa >> (b & 31));
    case K::kOr: return a | b;
    case K::kAnd: return a & b;
    case K::kMul: return a * b;
    case K::kMulh:
      return static_cast<uint32_t>((static_cast<int64_t>(sa) * static_cast<int64_t>(sb)) >> 32);
    case K::kMulhsu:
      return static_cast<uint32_t>((static_cast<int64_t>(sa) * static_cast<uint64_t>(b)) >> 32);
    case K::kMulhu:
      return static_cast<uint32_t>((static_cast<uint64_t>(a) * static_cast<uint64_t>(b)) >> 32);
    // Division never traps: x/0 is all ones, INT32_MIN / -1 overflows to
    // INT32_MIN with remainder 0.
    case K::kDiv:
      return b == 0 ? 0xFFFFFFFFu
             : (sa == INT32_MIN && sb == -1) ? static_cast<uint32_t>(INT32_MIN)
                                             : static_cast<uint32_t>(sa / sb);
    case K::kDivu: return b == 0 ? 0xFFFFFFFFu : a / b;
    case K::kRem:
      return b == 0 ? a : (sa == INT32_MIN && sb == -1) ? 0 : static_cast<uint32_t>(sa % sb);
    case K::kRemu: return b == 0 ? a : a % b;
    default: return 0;
  }
}

// Whether a conditional branch is taken. False for other kinds.
[[gnu::always_inline]] inline constexpr bool BranchTaken(InstrKind kind, uint32_t a,
                                                         uint32_t b) {
  using K = InstrKind;
  switch (kind) {
    case K::kBeq: return a == b;
    case K::kBne: return a != b;
    case K::kBlt: return static_cast<int32_t>(a) < static_cast<int32_t>(b);
    case K::kBge: return static_cast<int32_t>(a) >= static_cast<int32_t>(b);
    case K::kBltu: return a < b;
    case K::kBgeu: return a >= b;
    default: return false;
  }
}

// Target of a taken branch or jump: (rs1 + imm) & ~1 for jalr, pc + imm for
// jal and the conditional branches.
inline constexpr uint32_t JumpTarget(InstrKind kind, uint32_t a, uint32_t imm, uint32_t pc) {
  return kind == InstrKind::kJalr ? (a + imm) & ~1u : pc + imm;
}

}  // namespace msim

#endif  // MSIM_ISA_SEMANTICS_H_
