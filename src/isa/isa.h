// MRV32: the simulator's instruction set.
//
// The paper prototypes Metal on "a 5-stage pipelined RISC processor". We use
// the RISC-V 32-bit encoding formats (R/I/S/B/U/J) for the base ISA and place
// the Metal extension in the custom-0/custom-1 opcode spaces:
//
//   custom-0 (0x0B): the Table 1 instructions — menter, mexit, rmr, wmr,
//                    mld, mst — plus the simulator-only `halt`.
//   custom-1 (0x2B): architectural features the processor exposes to Metal
//                    mode only (paper §2.3): physical loads/stores, TLB
//                    modification, control registers, intercept configuration
//                    and intercepted-operand access.
#ifndef MSIM_ISA_ISA_H_
#define MSIM_ISA_ISA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace msim {

// Major opcodes (bits [6:0] of every instruction word).
enum Opcode : uint32_t {
  kOpLui = 0x37,
  kOpAuipc = 0x17,
  kOpJal = 0x6F,
  kOpJalr = 0x67,
  kOpBranch = 0x63,
  kOpLoad = 0x03,
  kOpStore = 0x23,
  kOpImm = 0x13,
  kOpReg = 0x33,
  kOpMiscMem = 0x0F,
  kOpSystem = 0x73,
  kOpMetal = 0x0B,     // custom-0: Metal core instructions (paper Table 1)
  kOpMetalArch = 0x2B, // custom-1: Metal-mode architectural features (paper §2.3)
};

// Every architectural instruction the simulator implements.
enum class InstrKind : uint8_t {
  kIllegal = 0,
  // RV32I base.
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // M extension.
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // Metal core (paper Table 1).
  kMenter,  // enter Metal mode via mroutine entry number (imm)
  kMexit,   // exit Metal mode; resume at address in m31
  kRmr,     // rd <- m[imm]
  kWmr,     // m[imm] <- rs1
  kMld,     // rd <- MRAM data segment[rs1 + imm]
  kMst,     // MRAM data segment[rs1 + imm] <- rs2
  kHalt,    // simulator-only: stop simulation (exit code in rs1)
  // Metal-mode architectural features (paper §2.3).
  kPlw,       // physical (untranslated) word load
  kPsw,       // physical (untranslated) word store
  kTlbwr,     // write TLB entry: vaddr in rs1, PTE in rs2
  kTlbinv,    // invalidate TLB entries matching vaddr in rs1 (current ASID)
  kTlbflush,  // rs1 == x0: flush all; else flush entries with ASID == rs1
  kTlbrd,     // probe: rd <- PTE matching vaddr rs1, or 0
  kMintset,   // configure instruction interception: spec rs1, target rs2
  kMopr,      // rd <- intercepted-instruction operand (selector in rs2 field)
  kMopw,      // pending rd-writeback for the intercepted instruction <- rs1
  kRcr,       // rd <- control register imm
  kWcr,       // control register imm <- rs1
  kCount,
};

// Instruction encoding formats.
enum class InstrFormat : uint8_t { kR, kI, kS, kB, kU, kJ, kNone };

// Static properties consulted by the decoder, pipeline and assembler.
struct InstrInfo {
  InstrKind kind = InstrKind::kIllegal;
  const char* mnemonic = "illegal";
  InstrFormat format = InstrFormat::kNone;
  uint32_t opcode = 0;
  uint32_t funct3 = 0;   // valid if has_funct3
  uint32_t funct7 = 0;   // valid if has_funct7
  bool has_funct3 = false;
  bool has_funct7 = false;
  bool metal_only = false;  // raises PrivilegeViolation outside Metal mode
  bool is_load = false;
  bool is_store = false;
  bool is_branch = false;  // conditional branch
  bool is_jump = false;    // unconditional control transfer (jal/jalr)
  bool writes_rd = false;
  uint8_t mem_size = 0;      // loads/stores: access width in bytes
  bool load_signed = false;  // loads: sign-extend (lb/lh) rather than zero-extend
};

// The instruction table, indexed by InstrKind (instr_table.cc). Read it
// through GetInstrInfo.
extern const std::array<InstrInfo, static_cast<size_t>(InstrKind::kCount)> kInstrTable;

// Returns the info entry for `kind`. kind must be a valid InstrKind.
inline const InstrInfo& GetInstrInfo(InstrKind kind) {
  return kInstrTable[static_cast<size_t>(kind)];
}

// Looks up an instruction by mnemonic ("add", "menter", ...). Pseudo
// instructions are handled by the assembler, not here.
const InstrInfo* FindInstrByMnemonic(std::string_view mnemonic);

// A decoded instruction: kind plus extracted operand fields.
struct Decoded {
  InstrKind kind = InstrKind::kIllegal;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;
  uint32_t raw = 0;

  const InstrInfo& info() const { return GetInstrInfo(kind); }
};

// Register name helpers. Accepts "x7", ABI names ("t0", "a1", "sp", ...) and
// Metal register names ("m0".."m31" via ParseMetalRegister).
std::optional<uint8_t> ParseGpr(std::string_view name);
std::optional<uint8_t> ParseMetalRegister(std::string_view name);

// Canonical ABI name of GPR index ("zero", "ra", "sp", ...).
std::string_view GprName(uint8_t index);

// Operand selectors for `mopr` (read intercepted-instruction state).
enum MoprSelector : uint8_t {
  kMoprRs1Value = 0,
  kMoprRs2Value = 1,
  kMoprImm = 2,
  kMoprRdIndex = 3,
  kMoprRaw = 4,
  kMoprRs1Index = 5,
  kMoprRs2Index = 6,
};

// Number of Metal registers (m0..m31); m31 receives the return address.
inline constexpr unsigned kNumMetalRegisters = 32;
inline constexpr uint8_t kMetalLinkRegister = 31;

// Maximum number of mroutine entries (paper §2: "up to 64 mroutines").
inline constexpr unsigned kMaxMroutines = 64;

}  // namespace msim

#endif  // MSIM_ISA_ISA_H_
