// mfuzz — differential fuzzer for the Metal simulator (docs/determinism.md).
//
// Generates random (but always well-formed) programs plus mcode modules,
// biased toward the paper's hot constructs — menter/mexit transitions,
// mld/mst, rmr/wmr, TLB ops and instruction-interception toggles — and uses
// the lockstep comparator (src/snap/diverge.h) as the oracle:
//
//   determinism  two machines with identical configuration, compared per
//                cycle by full state digest — any divergence is a real
//                nondeterminism bug in the simulator;
//   storage      MRAM vs. DRAM-cached mroutine storage, compared by retire
//                stream (Metal-mode pc-insensitive): storage mode must be
//                architecturally invisible;
//   fast         fast vs. slow menter/mexit transitions, compared by retire
//                stream with transition retires canonicalized away;
//   faststep     fast_step on vs. off (traces and the device horizon vs. the
//                per-cycle reference), compared by retire stream and exit
//                code; its cases also program and sample the timer, and
//                their mroutines loop over dcache-conflicting plw/psw and
//                read intercepted operands, so they run as Metal traces.
//
// A fourth oracle, `injection` (not part of `all` — it tests the machine's
// fault detection, not the simulator's determinism), runs each generated
// program clean to get a golden outcome, derives one deterministic pinned
// fault from the case seed (MRAM code/data word or cache tag — the targets
// the machine claims to detect or tolerate), reruns with the fault injected
// and classifies the divergence with the campaign classifier
// (src/campaign). A run whose final architectural state differs from golden
// with no machine check raised is silent data corruption: mfuzz pinpoints
// the first divergent cycle by lockstep, writes a repro directory and exits
// 14. With MRAM parity on, a finding is a real detection hole; pass
// --no-parity to watch the oracle light up on the unprotected machine.
//
// On a failure mfuzz writes a self-contained repro directory (program.s,
// mcode.s, divergence.json, repro.sh), shrinks same-config divergences by
// checkpoint bisection (the latest snapshot from which the divergence still
// reproduces bounds the window the bug lives in), and exits 10.
//
// Usage:
//   mfuzz [--seed N] [--runs N] [--time-budget-seconds N] [--max-cycles N]
//         [--oracle all|determinism|storage|fast|faststep|injection]
//         [--no-parity] [--out DIR]
//
// Exit: 0 = all runs clean, 10 = divergence found, 14 = silent data
// corruption found (injection oracle), 2 = usage, 1 = error. All reporting
// goes to stderr; artifacts go to --out (default mfuzz-out).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "fault/fault.h"
#include "metal/machine_spec.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "snap/snapshot.h"
#include "support/exit_codes.h"
#include "support/rng.h"
#include "support/strings.h"

using namespace msim;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mfuzz [--seed N] [--runs N] [--time-budget-seconds N] "
               "[--max-cycles N]\n"
               "             [--oracle all|determinism|storage|fast|faststep|injection]\n"
               "             [--no-parity] [--out DIR]\n");
  return kExitUsage;
}

// ---------------------------------------------------------------------------
// Program generation. Everything emitted is well-formed by construction:
// branches only target labels the generator itself laid down, loops are
// bounded by a dedicated counter register, Metal-only instructions appear
// only inside mroutines, and mcode never embeds an absolute code address —
// so the same source assembles to the same words under every storage mode.
// ---------------------------------------------------------------------------

struct GeneratedCase {
  MachineSources sources;  // one mcode module
  unsigned num_entries = 0;
};

// Registers the generator scribbles on. t6 holds the scratch-data base and
// s11 the loop counter, so neither appears in the pool.
const char* const kPool[] = {"t0", "t1", "t2", "t3", "t4", "t5", "s2", "s3", "s4", "s5"};
constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

const char* PickReg(Rng& rng) { return kPool[rng.Below(kPoolSize)]; }

void EmitAlu(Rng& rng, std::string& out) {
  static const char* const kOps3[] = {"add", "sub", "xor", "or", "and", "sll", "srl"};
  static const char* const kOpsImm[] = {"addi", "xori", "ori", "andi"};
  switch (rng.Below(3)) {
    case 0:
      out += StrFormat("  %s %s, %s, %s\n", kOps3[rng.Below(7)], PickReg(rng), PickReg(rng),
                       PickReg(rng));
      break;
    case 1:
      out += StrFormat("  %s %s, %s, %d\n", kOpsImm[rng.Below(4)], PickReg(rng), PickReg(rng),
                       (int)rng.Range(0, 4094) - 2047);
      break;
    default:
      out += StrFormat("  li %s, 0x%08x\n", PickReg(rng), rng.Next32());
      break;
  }
}

// Timer MMIO traffic (dev/timer.h), for cases whose oracle compares two
// machines with identical timing: s8 holds the timer base, and every COUNT,
// COMPARE or interrupt-controller PENDING read is folded into s9, which
// feeds the exit code — so a device tick skipped, doubled or caught up at
// the wrong cycle changes the outcome. Programs COMPARE relative to the
// current COUNT, INTERVAL short or zero (one-shot), and CTRL on or off;
// interrupts stay masked (IENABLE is 0), so firing is observed through
// PENDING.
void EmitTimerAccess(Rng& rng, std::string& out) {
  const char* reg = PickReg(rng);
  switch (rng.Below(5)) {
    case 0:  // COUNT, or COMPARE (a periodic fire advances it)
      out += StrFormat("  lw %s, %u(s8)\n  xor s9, s9, %s\n", reg, rng.Chance(1, 2) ? 0u : 4u,
                       reg);
      break;
    case 1:
      out += StrFormat("  lw %s, 0(s8)\n  addi %s, %s, %u\n  sw %s, 4(s8)\n", reg, reg, reg,
                       (unsigned)rng.Range(1, 64), reg);
      break;
    case 2:
      out += StrFormat("  li %s, %u\n  sw %s, 12(s8)\n", reg,
                       rng.Chance(1, 3) ? 0u : (unsigned)rng.Range(1, 40), reg);
      break;
    case 3:
      out += StrFormat("  li %s, %u\n  sw %s, 8(s8)\n", reg, rng.Chance(3, 4) ? 1u : 0u, reg);
      break;
    default:
      out += StrFormat("  li %s, 0xF0000000\n  lw %s, 0(%s)\n  xor s9, s9, %s\n", reg, reg, reg,
                       reg);
      break;
  }
}

// One instruction of an mroutine body. Biased toward the Metal register file
// and MRAM data segment; rcr sticks to the always-safe trap-context cregs
// (reading cycle/instret would make timing architecturally visible and
// legitimately diverge across storage modes). With `timer`, one case in
// eleven is timer MMIO traffic instead.
void EmitMetalInstr(Rng& rng, std::string& out, bool timer) {
  switch (rng.Below(timer ? 11 : 10)) {
    case 0:
    case 1:
      out += StrFormat("  rmr %s, m%u\n", PickReg(rng), (unsigned)rng.Below(32));
      break;
    case 2:
    case 3:
      // m31 is the mexit retry-pc control; writing it at random could re-run
      // an intercepted instruction with interception still armed.
      out += StrFormat("  wmr m%u, %s\n", (unsigned)rng.Below(31), PickReg(rng));
      break;
    case 4:
      out += StrFormat("  mld %s, %u(zero)\n", PickReg(rng), (unsigned)rng.Below(256) * 4);
      break;
    case 5:
      out += StrFormat("  mst %s, %u(zero)\n", PickReg(rng), (unsigned)rng.Below(256) * 4);
      break;
    case 6:
      out += StrFormat("  rcr %s, %u\n", PickReg(rng), (unsigned)rng.Below(5));
      break;
    case 7:
      switch (rng.Below(3)) {
        case 0:
          out += StrFormat("  tlbwr %s, %s\n", PickReg(rng), PickReg(rng));
          break;
        case 1:
          out += StrFormat("  tlbrd %s, %s\n", PickReg(rng), PickReg(rng));
          break;
        default:
          out += StrFormat("  tlbinv %s\n", PickReg(rng));
          break;
      }
      break;
    case 10:
      EmitTimerAccess(rng, out);
      break;
    default:
      EmitAlu(rng, out);
      break;
  }
}

// Metal-trace traffic for the timer variant's mroutines: a bounded countdown
// loop (s7; the generated program never touches it) whose taken back edge
// refills the pipeline in Metal mode, so its body runs as a Metal trace,
// with plw/psw (s6) to scratch words four lines apart in DRAM — every one
// maps to the same dcache line, so they keep missing and freezing in-trace.
void EmitMetalLoop(Rng& rng, std::string& out, unsigned label) {
  out += StrFormat("  li s7, %u\nmloop%u:\n", (unsigned)rng.Range(2, 6), label);
  const unsigned body = (unsigned)rng.Range(1, 4);
  for (unsigned i = 0; i < body; ++i) {
    if (rng.Chance(1, 2)) {
      // 4 KiB apart: the size of the default 64-line, 64-byte dcache.
      const uint32_t addr = 0x00080000u + 4096u * (uint32_t)rng.Below(4) +
                            4u * (uint32_t)rng.Below(16);
      out += StrFormat("  li s6, 0x%08x\n  %s %s, 0(s6)\n", addr,
                       rng.Chance(1, 2) ? "plw" : "psw", PickReg(rng));
    } else {
      EmitMetalInstr(rng, out, /*timer=*/true);
    }
  }
  out += StrFormat("  addi s7, s7, -1\n  bnez s7, mloop%u\n", label);
}

// With `timer`, a generated case also programs and reads the timer from
// normal and Metal mode (EmitTimerAccess), and its mroutines carry Metal
// trace traffic (EmitMetalLoop, intercepted-operand reads); without it, the
// case is exactly what the seed always generated.
GeneratedCase Generate(uint64_t seed, bool timer) {
  Rng rng(seed);
  GeneratedCase result;
  std::string& mcode = result.sources.mcode.emplace_back();
  std::string& program = result.sources.program;
  result.num_entries = (unsigned)rng.Range(2, 4);
  const bool use_intercept = rng.Chance(1, 2);
  // Entry num_entries is the interception handler (a plain generated routine).
  const unsigned handler = result.num_entries;
  const unsigned opcode = rng.Chance(1, 2) ? 0x03u : 0x23u;  // loads or stores

  for (unsigned entry = 1; entry <= result.num_entries; ++entry) {
    mcode += StrFormat("  .mentry %u, routine%u\nroutine%u:\n", entry, entry, entry);
    if (use_intercept && entry == 1) {
      // Arm slot 0; a later toggle may disarm it again (clearing bit 31).
      mcode += StrFormat("  li t0, 0x%08x\n  li t1, %u\n  mintset t0, t1\n",
                                0x80000000u | opcode, handler);
    }
    const unsigned body = (unsigned)rng.Range(4, 12);
    for (unsigned i = 0; i < body; ++i) {
      EmitMetalInstr(rng, mcode, timer);
    }
    if (timer) {
      if (use_intercept && entry == handler) {
        // Read the intercepted instruction's operands; with only loads
        // intercepted, its rd is a pool register, so mopw is safe too.
        mcode += StrFormat("  mopr %s, %u\n", PickReg(rng), (unsigned)rng.Below(7));
        if (opcode == 0x03u && rng.Chance(1, 2)) {
          mcode += StrFormat("  mopw %s\n", PickReg(rng));
        }
      }
      if (rng.Chance(2, 3)) {
        EmitMetalLoop(rng, mcode, entry);
      }
    }
    if (use_intercept && rng.Chance(1, 4)) {
      mcode += StrFormat("  li t0, 0x%08x\n  li t1, %u\n  mintset t0, t1\n",
                                rng.Chance(1, 2) ? (0x80000000u | opcode) : opcode, handler);
    }
    mcode += "  mexit\n";
  }

  program += "_start:\n  la t6, scratch\n";
  if (timer) {
    program += "  li s8, 0xF0001000\n  li s9, 0\n";
  }
  const unsigned blocks = (unsigned)rng.Range(5, 12);
  unsigned next_label = 0;
  for (unsigned b = 0; b < blocks; ++b) {
    switch (rng.Below(timer ? 8 : 7)) {
      case 0: {  // bounded loop, body may re-enter Metal mode (the hot path)
        const unsigned label = next_label++;
        program += StrFormat("  li s11, %u\nloop%u:\n", (unsigned)rng.Range(2, 8), label);
        const unsigned body = (unsigned)rng.Range(1, 3);
        for (unsigned i = 0; i < body; ++i) {
          if (rng.Chance(1, 3)) {
            program +=
                StrFormat("  menter %u\n", (unsigned)rng.Range(1, result.num_entries));
          } else {
            EmitAlu(rng, program);
          }
        }
        program += StrFormat("  addi s11, s11, -1\n  bnez s11, loop%u\n", label);
        break;
      }
      case 1:  // Metal transition
        program += StrFormat("  menter %u\n", (unsigned)rng.Range(1, result.num_entries));
        break;
      case 2:  // scratch-memory traffic (interception targets these, too)
        if (rng.Chance(1, 2)) {
          program +=
              StrFormat("  sw %s, %u(t6)\n", PickReg(rng), (unsigned)rng.Below(16) * 4);
        } else {
          program +=
              StrFormat("  lw %s, %u(t6)\n", PickReg(rng), (unsigned)rng.Below(16) * 4);
        }
        break;
      case 3: {  // load/store-dense straight-line run: every width, mixed
                 // with occasional immediate load-use pairs so superblock
                 // memory slots exercise both the non-stall dispatch and the
                 // skid/stall path (docs/performance.md).
        static const struct {
          const char* op;
          unsigned width;
          bool store;
        } kMemOps[] = {{"lb", 1, false}, {"lbu", 1, false}, {"lh", 2, false},
                       {"lhu", 2, false}, {"lw", 4, false}, {"sb", 1, true},
                       {"sh", 2, true},  {"sw", 4, true}};
        const unsigned count = (unsigned)rng.Range(4, 10);
        for (unsigned i = 0; i < count; ++i) {
          const auto& m = kMemOps[rng.Below(8)];
          const unsigned offset = (unsigned)rng.Below(64 / m.width) * m.width;
          const char* reg = PickReg(rng);
          program += StrFormat("  %s %s, %u(t6)\n", m.op, reg, offset);
          if (!m.store && rng.Chance(1, 3)) {
            program += StrFormat("  add %s, %s, %s\n", PickReg(rng), reg, reg);
          }
        }
        break;
      }
      case 4: {  // store aliasing the code segment: the target words sit
                 // behind the program counter (nothing branches back to
                 // _start), so executed semantics are unchanged — but the
                 // predecode cache (write generation) and any superblock
                 // trace built over those words (page stamp) must notice.
        static const struct {
          const char* op;
          unsigned width;
        } kStores[] = {{"sb", 1}, {"sh", 2}, {"sw", 4}};
        const auto& s = kStores[rng.Below(3)];
        const unsigned offset = (unsigned)rng.Below(8 / s.width) * s.width;
        program += StrFormat("  la s10, _start\n  %s %s, %u(s10)\n", s.op,
                                    PickReg(rng), offset);
        break;
      }
      case 7: {  // timer programming, then a bounded loop that samples
                 // PENDING and COMPARE every iteration, so fires are visible
        const char* reg = PickReg(rng);
        program += StrFormat(
            "  lw %s, 0(s8)\n  addi %s, %s, %u\n  sw %s, 4(s8)\n"
            "  li %s, %u\n  sw %s, 12(s8)\n  li %s, %u\n  sw %s, 8(s8)\n",
            reg, reg, reg, (unsigned)rng.Range(1, 32), reg, reg,
            rng.Chance(1, 3) ? 0u : (unsigned)rng.Range(1, 24), reg, reg,
            rng.Chance(7, 8) ? 1u : 0u, reg);
        const unsigned label = next_label++;
        program +=
            StrFormat("  li s11, %u\nloop%u:\n", (unsigned)rng.Range(2, 12), label);
        EmitAlu(rng, program);
        if (rng.Chance(1, 2)) {
          EmitTimerAccess(rng, program);
        }
        program += StrFormat(
            "  li %s, 0xF0000000\n  lw %s, 0(%s)\n  xor s9, s9, %s\n"
            "  lw %s, 4(s8)\n  add s9, s9, %s\n"
            "  addi s11, s11, -1\n  bnez s11, loop%u\n",
            reg, reg, reg, reg, reg, reg, label);
        if (rng.Chance(1, 2)) {  // acknowledge, so a later fire is visible
          program += StrFormat("  li %s, 0xF0000000\n  li t6, -1\n  sw t6, 8(%s)\n"
                                      "  la t6, scratch\n",
                                      reg, reg);
        }
        break;
      }
      default: {
        const unsigned count = (unsigned)rng.Range(1, 3);
        for (unsigned i = 0; i < count; ++i) {
          EmitAlu(rng, program);
        }
        break;
      }
    }
  }
  program += StrFormat("  li a0, %u\n", (unsigned)rng.Below(256));
  if (timer) {
    program += "  xor a0, a0, s9\n";
  }
  program += "  halt a0\n";
  program += ".data\nscratch:\n";
  for (int i = 0; i < 16; ++i) {
    program += StrFormat("  .word 0x%08x\n", rng.Next32());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

// Machine A is always the base machine; B is a variant of it.
struct Oracle {
  const char* name;
  CoreConfig config_b;
  LockstepOptions options;
  const char* b_flags = "";  // how `msim replay` derives B from A
  // Runs the timer-traffic variant of each case (Generate). Only sound when
  // A and B have identical timing: the cases make the cycle count visible.
  bool timer = false;
};

std::vector<Oracle> BuildOracles(const std::string& which, const CoreConfig& base,
                                 uint64_t max_cycles) {
  std::vector<Oracle> oracles;
  if (which == "all" || which == "determinism") {
    Oracle o{"determinism", base, {}};
    o.options.granularity = CompareGranularity::kCycle;
    o.options.max_cycles = max_cycles;
    oracles.push_back(o);
  }
  if (which == "all" || which == "storage") {
    Oracle o{"storage", base, {}};
    o.config_b.mroutine_storage = MroutineStorage::kDramCached;
    o.b_flags = "--b-storage dram-cached";
    o.options.granularity = CompareGranularity::kRetire;
    o.options.max_cycles = max_cycles;
    o.options.metal_pc_insensitive = true;
    // Fast transitions only exist under MRAM storage (core.cc
    // IdReplacementChain), so the storage change also flips whether
    // menter/mexit retire.
    o.options.ignore_transition_retires = true;
    oracles.push_back(o);
  }
  if (which == "all" || which == "fast") {
    Oracle o{"fast", base, {}};
    o.config_b.fast_transition = false;
    o.b_flags = "--b-no-fast";
    o.options.granularity = CompareGranularity::kRetire;
    o.options.max_cycles = max_cycles;
    o.options.ignore_transition_retires = true;
    oracles.push_back(o);
  }
  if (which == "all" || which == "faststep") {
    // Traced stepping and the device horizon vs the per-cycle reference.
    // No canonicalization: both sides run the same cycles, so every retire
    // must match, and the timer traffic folds COUNT, COMPARE and PENDING
    // reads into the compared exit code. Retire granularity because
    // cycle-granular lockstep would never run the trace tier.
    Oracle o{"faststep", base, {}};
    o.config_b.fast_step = false;
    o.b_flags = "--b-no-fast-step";
    o.options.granularity = CompareGranularity::kRetire;
    o.options.max_cycles = max_cycles;
    o.timer = true;
    oracles.push_back(o);
  }
  return oracles;
}

Status BuildSystem(MetalSystem& system, const GeneratedCase& c) {
  MSIM_RETURN_IF_ERROR(InstallSources(c.sources, system));
  return system.Boot();
}

// Shrinks a same-config cycle-granularity divergence by checkpoint bisection:
// finds the latest cycle S from which a snapshot of the reference machine,
// restored into both sides, still reproduces the divergence. The returned
// window [S, diverge_cycle] is the smallest state-context the bug needs.
Result<uint64_t> ShrinkByCheckpointBisection(const GeneratedCase& c, const CoreConfig& config_a,
                                             const Oracle& oracle, uint64_t diverge_cycle) {
  uint64_t lo = 0;  // known-reproducing snapshot cycle
  uint64_t hi = diverge_cycle;
  while (lo + 1 < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    MetalSystem reference(config_a);
    MSIM_RETURN_IF_ERROR(BuildSystem(reference, c));
    reference.core().Run(mid);
    if (reference.core().cycle() != mid || reference.core().halted()) {
      hi = mid;  // machine never reaches mid cleanly; try earlier
      continue;
    }
    const std::vector<uint8_t> image = SaveSnapshot(reference.core());
    MetalSystem a(config_a);
    MetalSystem b(oracle.config_b);
    MSIM_RETURN_IF_ERROR(BuildSystem(a, c));
    MSIM_RETURN_IF_ERROR(BuildSystem(b, c));
    MSIM_RETURN_IF_ERROR(RestoreSnapshot(a.core(), image));
    MSIM_RETURN_IF_ERROR(RestoreSnapshot(b.core(), image));
    LockstepOptions options = oracle.options;
    options.max_cycles = diverge_cycle - mid + 16;
    MSIM_ASSIGN_OR_RETURN(const DivergenceReport report, RunLockstep(a, b, options));
    if (report.diverged) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Writes the repro directory <out_dir>/case-<seed>-<oracle>: the case's
// sources, the fault spec (if any), divergence.json and `repro_script`, a
// repro.sh that needs only the msim CLI, not mfuzz or the seed.
int WriteArtifacts(const std::string& out_dir, uint64_t seed, const char* oracle_name,
                   const GeneratedCase& c, const DivergenceReport& report,
                   const std::string& repro_script, const std::string& spec_text = "") {
  std::vector<ReproFile> files = {{"program.s", c.sources.program},
                                  {"mcode.s", c.sources.mcode[0]}};
  if (!spec_text.empty()) {
    files.push_back({"spec.txt", spec_text + "\n"});
  }
  const std::string name = StrFormat("case-%llu-%s", (unsigned long long)seed, oracle_name);
  if (Status status = WriteReproDir(out_dir, name, std::move(files), &report, repro_script);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[mfuzz] artifacts: %s/%s\n", out_dir.c_str(), name.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Injection oracle (src/campaign): golden run vs. one seeded fault.
// ---------------------------------------------------------------------------

// One fully pinned fault spec derived from the case seed. Targets are the
// structures the machine claims to detect (MRAM words, via parity) or
// tolerate (cache tags, timing-only); the silent-by-design targets (mreg,
// tlb, bus) would trivially "find" corruption the architecture never
// promised to catch. MRAM locations are drawn from the first 256 words —
// the region the generator's mld/mst traffic and mcode actually occupy —
// so faults land on live state instead of measuring dead space.
FaultSpec DeriveInjectionSpec(uint64_t seed, const CoreConfig& config, uint64_t golden_cycles) {
  static const FaultTarget kTargets[] = {FaultTarget::kMramCode, FaultTarget::kMramData,
                                         FaultTarget::kICache, FaultTarget::kDCache};
  Rng rng(seed ^ 0xFA17ull);
  FaultSpec spec;
  spec.target = kTargets[rng.Below(4)];
  spec.cycle = rng.Range(1, golden_cycles - 1);
  const uint32_t capacity =
      std::min(FaultTargetCapacity(spec.target, config), UINT32_C(256));
  const uint32_t location = static_cast<uint32_t>(rng.Below(capacity));
  const uint32_t bit = static_cast<uint32_t>(rng.Below(32));
  spec.has_at = true;
  spec.at = (spec.target == FaultTarget::kMramCode || spec.target == FaultTarget::kMramData)
                ? location * 4
                : location;
  spec.mask = 1u << bit;
  spec.text = StrFormat("%s@%llu:at=%u,bit=%u", FaultTargetName(spec.target),
                        (unsigned long long)spec.cycle, spec.at, bit);
  return spec;
}

// One injection case: clean golden run, one injected rerun, campaign
// classification. Returns true when the case is a finding (an SDC — silent
// architectural divergence with no machine check), after pinpointing the
// first divergent cycle and writing the repro directory.
Result<bool> RunInjectionCase(uint64_t seed, const GeneratedCase& c, const MachineSpec& machine,
                              uint64_t max_cycles, const std::string& out_dir) {
  const CoreConfig& config = machine.config;
  MetalSystem golden_sys(config);
  MSIM_RETURN_IF_ERROR(BuildSystem(golden_sys, c));
  golden_sys.core().Run(max_cycles);
  if (!golden_sys.core().halted() || golden_sys.core().has_fatal()) {
    // Generated programs are bounded by construction; a clean run that does
    // not halt is a generator problem, not a detection hole — skip the case.
    std::fprintf(stderr, "[mfuzz] seed %llu: clean run did not halt in %llu cycles, skipping\n",
                 (unsigned long long)seed, (unsigned long long)max_cycles);
    return false;
  }
  const ArchOutcome golden = CaptureArchOutcome(golden_sys.core());
  if (golden.cycles < 4) {
    return false;  // no live cycle range to inject into
  }

  const FaultSpec spec = DeriveInjectionSpec(seed, config, golden.cycles);
  const uint64_t budget = golden.cycles * 4;

  MetalSystem trial_sys(config);
  MSIM_RETURN_IF_ERROR(BuildSystem(trial_sys, c));
  FaultEngine engine(0);
  engine.AddSpec(spec);
  trial_sys.core().SetFaultEngine(&engine);
  trial_sys.core().Run(budget);
  const TrialOutcome outcome = ClassifyTrial(golden, CaptureArchOutcome(trial_sys.core()));
  if (outcome != TrialOutcome::kSdc) {
    if (outcome != TrialOutcome::kMasked) {
      std::fprintf(stderr, "[mfuzz] seed %llu oracle injection: %s (%s)\n",
                   (unsigned long long)seed, TrialOutcomeName(outcome), spec.text.c_str());
    }
    return false;
  }

  std::fprintf(stderr, "[mfuzz] seed %llu oracle injection: SILENT DATA CORRUPTION (%s)\n",
               (unsigned long long)seed, spec.text.c_str());
  MetalSystem a(config);
  MetalSystem b(config);
  MSIM_RETURN_IF_ERROR(BuildSystem(a, c));
  MSIM_RETURN_IF_ERROR(BuildSystem(b, c));
  FaultEngine pin_engine(0);
  pin_engine.AddSpec(spec);
  b.core().SetFaultEngine(&pin_engine);
  LockstepOptions options;
  options.granularity = CompareGranularity::kCycle;
  options.max_cycles = budget;
  MSIM_ASSIGN_OR_RETURN(const DivergenceReport report, RunLockstep(a, b, options));
  WriteDivergenceText(report, std::cerr);
  const std::string script = ReplayScript(
      "# Replays the silent data corruption found by the mfuzz injection oracle:\n"
      "# machine B runs with the fault injected, machine A clean, compared per cycle.\n",
      ShellJoin(MsimArgs(machine)), "--b-inject " + ShellQuote(spec.text), budget);
  if (WriteArtifacts(out_dir, seed, "injection", c, report, script, spec.text) != 0) {
    return Internal("failed writing injection artifacts");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t base_seed = 1;
  uint64_t runs = 0;
  uint64_t time_budget_seconds = 0;
  uint64_t max_cycles = 200000;
  std::string oracle_name = "all";
  std::string out_dir = "mfuzz-out";
  // Every oracle's machine A, named as in a case's repro directory.
  MachineSpec base;
  base.program = "program.s";
  base.mcode = {"mcode.s"};

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (ParseMachineFlag(args, &i, kOptNoParity, &base).value()) {
      continue;
    }
    if (arg == "--seed" && i + 1 < args.size()) {
      if (!ParseU64Flag("--seed", args[++i], &base_seed)) {
        return 2;
      }
    } else if (arg == "--runs" && i + 1 < args.size()) {
      if (!ParseU64Flag("--runs", args[++i], &runs)) {
        return 2;
      }
    } else if (arg == "--time-budget-seconds" && i + 1 < args.size()) {
      if (!ParseU64Flag("--time-budget-seconds", args[++i], &time_budget_seconds)) {
        return 2;
      }
    } else if (arg == "--max-cycles" && i + 1 < args.size()) {
      if (!ParseU64Flag("--max-cycles", args[++i], &max_cycles)) {
        return 2;
      }
    } else if (arg == "--oracle" && i + 1 < args.size()) {
      oracle_name = args[++i];
      if (oracle_name != "all" && oracle_name != "determinism" && oracle_name != "storage" &&
          oracle_name != "fast" && oracle_name != "faststep" && oracle_name != "injection") {
        std::fprintf(stderr,
                     "unknown oracle '%s' (want all, determinism, storage, fast, faststep "
                     "or injection)\n",
                     oracle_name.c_str());
        return 2;
      }
    } else if (arg == "--out" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (runs == 0 && time_budget_seconds == 0) {
    runs = 100;
  }

  const CoreConfig& base_config = base.config;
  const std::string repro_args = ShellJoin(MsimArgs(base));
  const bool injection = oracle_name == "injection";
  const std::vector<Oracle> oracles =
      injection ? std::vector<Oracle>{} : BuildOracles(oracle_name, base_config, max_cycles);
  const auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&] {
    if (time_budget_seconds == 0) {
      return false;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >=
           (long long)time_budget_seconds;
  };

  uint64_t executed = 0;
  for (uint64_t i = 0; (runs == 0 || i < runs) && !out_of_budget(); ++i) {
    const uint64_t seed = base_seed + i;
    const GeneratedCase plain = Generate(seed, /*timer=*/false);
    if (injection) {
      auto found = RunInjectionCase(seed, plain, base, max_cycles, out_dir);
      if (!found.ok()) {
        std::fprintf(stderr, "[mfuzz] seed %llu oracle injection: %s\n",
                     (unsigned long long)seed, found.status().ToString().c_str());
        return 1;
      }
      if (*found) {
        return kExitSdc;
      }
      ++executed;
      if (executed % 25 == 0) {
        std::fprintf(stderr, "[mfuzz] %llu cases clean\n", (unsigned long long)executed);
      }
      continue;
    }
    const GeneratedCase timed = Generate(seed, /*timer=*/true);
    for (const Oracle& oracle : oracles) {
      const GeneratedCase& c = oracle.timer ? timed : plain;
      MetalSystem a(base_config);
      MetalSystem b(oracle.config_b);
      if (Status status = BuildSystem(a, c); !status.ok()) {
        std::fprintf(stderr, "[mfuzz] seed %llu: generated case does not assemble: %s\n",
                     (unsigned long long)seed, status.ToString().c_str());
        return 1;  // a generator bug, not a simulator bug — fix the generator
      }
      if (Status status = BuildSystem(b, c); !status.ok()) {
        std::fprintf(stderr, "[mfuzz] seed %llu: %s\n", (unsigned long long)seed,
                     status.ToString().c_str());
        return 1;
      }
      auto report = RunLockstep(a, b, oracle.options);
      if (!report.ok()) {
        std::fprintf(stderr, "[mfuzz] seed %llu oracle %s: %s\n", (unsigned long long)seed,
                     oracle.name, report.status().ToString().c_str());
        return 1;
      }
      if (report->diverged) {
        std::fprintf(stderr, "[mfuzz] seed %llu oracle %s: DIVERGENCE\n",
                     (unsigned long long)seed, oracle.name);
        WriteDivergenceText(*report, std::cerr);
        if (oracle.options.granularity == CompareGranularity::kCycle) {
          auto window = ShrinkByCheckpointBisection(c, base_config, oracle, report->cycle_a);
          if (window.ok()) {
            std::fprintf(stderr,
                         "[mfuzz] shrunk: divergence reproduces from a snapshot at cycle %llu "
                         "(window %llu cycles)\n",
                         (unsigned long long)*window,
                         (unsigned long long)(report->cycle_a - *window));
          }
        }
        const std::string script =
            ReplayScript("# Reproduces the divergence found by mfuzz.\n",
                         repro_args, oracle.b_flags, max_cycles);
        if (int rc = WriteArtifacts(out_dir, seed, oracle.name, c, *report, script); rc != 0) {
          return rc;
        }
        return kExitDivergence;
      }
    }
    ++executed;
    if (executed % 25 == 0) {
      std::fprintf(stderr, "[mfuzz] %llu cases clean\n", (unsigned long long)executed);
    }
  }
  std::fprintf(stderr, "[mfuzz] done: %llu cases, no divergence\n",
               (unsigned long long)executed);
  return 0;
}
