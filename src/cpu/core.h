// Cycle-level model of the paper's 5-stage pipelined RISC processor with the
// Metal extension.
//
// Pipeline model. The five stages are IF, ID, EX, MEM and (implicit) WB.
// Stages are processed in reverse order each cycle (MEM, EX, ID, IF) so that
// older instructions observe redirects/faults before younger ones advance.
// Architectural effects are applied at EX (ALU, branches, Metal state) and at
// MEM completion (loads/stores); because the pipeline is in-order and stages
// are processed oldest-first, this is functionally equivalent to a 5-stage
// with full forwarding, and the classic hazards are modeled explicitly for
// timing:
//   * 1-cycle load-use bubble (detected in ID),
//   * 2-cycle flush for control transfers resolved in EX,
//   * multi-cycle D-side accesses occupy MEM and stall the pipe,
//   * multi-cycle I-side misses starve ID.
// WB carries no modeled behaviour (no structural hazard on the register file
// is simulated), so retirement is counted at MEM completion.
//
// Metal mode transitions (paper §2.2). With fast_transition enabled and
// mroutines stored in MRAM, `menter` is REPLACED in the decode stage by the
// first instruction of the target mroutine (fetched combinationally from
// MRAM) and `mexit` is replaced by the resume-stream instruction, so a no-op
// mroutine round trip adds ~0 cycles. The mode switch itself travels with the
// replacement instruction and commits at EX, so an older instruction that
// faults in MEM squashes a speculatively entered mroutine cleanly. With
// fast_transition disabled (ablation) or DRAM-resident mroutines (trap and
// PALcode comparison configurations), menter/mexit behave like jumps resolved
// at EX.
#ifndef MSIM_CPU_CORE_H_
#define MSIM_CPU_CORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "asm/program.h"
#include "cpu/config.h"
#include "cpu/metal_unit.h"
#include "cpu/superblock.h"
#include "cpu/trap.h"
#include "dev/console.h"
#include "dev/intc.h"
#include "dev/nic.h"
#include "dev/timer.h"
#include "isa/decode.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/mram.h"
#include "mmu/mmu.h"
#include "support/result.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace msim {

class FaultEngine;
class SnapWriter;
class SnapReader;

struct CoreStats {
  uint64_t cycles = 0;
  uint64_t instret = 0;
  uint64_t metal_instret = 0;   // instructions retired in Metal mode
  uint64_t metal_cycles = 0;    // cycles with the committed mode == Metal
  uint64_t menters = 0;
  uint64_t mexits = 0;
  uint64_t fast_replacements = 0;  // decode-stage menter/mexit replacements
  uint64_t exceptions = 0;
  uint64_t interrupts = 0;
  uint64_t intercepts = 0;
  uint64_t control_flushes = 0;
  uint64_t load_use_stalls = 0;
  uint64_t machine_checks = 0;   // machine checks raised (delegated or fatal)
  uint64_t watchdog_fires = 0;   // metal-mode watchdog expirations
};

struct RunResult {
  enum class Reason { kHalted, kCycleLimit, kFatal };
  Reason reason = Reason::kCycleLimit;
  uint32_t exit_code = 0;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  std::string fatal_message;  // set when reason == kFatal
};

class Core {
 public:
  explicit Core(const CoreConfig& config = CoreConfig{});
  ~Core();

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // Loads a program's sections into DRAM and points fetch at its entry.
  Status LoadProgram(const Program& program);

  // Advances one clock cycle. Called directly it ticks the devices every
  // cycle — the naive per-cycle reference; inside a fast_step Run it ticks
  // them only at their event horizon.
  void StepCycle();

  // Hot-path stepping (docs/performance.md): from an empty pipeline, or by
  // adopting latches a trace can represent, runs superblock traces
  // (cpu/superblock.h) of the current mode — DRAM code in normal mode,
  // MRAM-resident mroutine code in Metal mode — without per-cycle device
  // polling or latch shuffling, returning as soon as a trace cannot go on
  // or anything interesting — a mode transition, an icache miss, an MMIO
  // access, a pending device event — is next. Cycle-exact: after N
  // committed cycles the machine state is byte-identical to N StepCycle
  // calls (enforced by `msim replay --b-no-fast-step` and the mfuzz
  // "faststep" oracle). Returns the number of cycles committed; 0 when the
  // current state is not eligible (caller falls back to StepCycle).
  // `max_retires` (0 = unlimited) additionally bounds the number of retired
  // instructions, for Run's retire bound.
  uint64_t StepFast(uint64_t max_cycles, uint64_t max_retires = 0);

  // Runs until halt, fatal error or the cycle budget is exhausted, or — when
  // `max_retires` is non-zero — until at least that many instructions have
  // retired (reported as kCycleLimit; a per-cycle step may overshoot the
  // retire bound by the one extra retire its cycle completes). With
  // config().fast_step set it steps through StepFast where eligible and ticks
  // the devices only at their event horizon (docs/performance.md); the
  // state it returns in is byte-identical to the per-cycle reference's.
  RunResult Run(uint64_t max_cycles = 0, uint64_t max_retires = 0);

  // --- component access ---
  const CoreConfig& config() const { return config_; }
  Bus& bus() { return bus_; }
  Mram& mram() { return mram_; }
  Mmu& mmu() { return mmu_; }
  MetalUnit& metal() { return metal_; }
  const MetalUnit& metal() const { return metal_; }
  InterruptController& intc() { return intc_; }
  TimerDevice& timer() { return timer_; }
  NicDevice& nic() { return nic_; }
  ConsoleDevice& console() { return console_; }
  Cache& icache() { return icache_; }
  Cache& dcache() { return dcache_; }
  SuperblockCache& superblocks() { return superblocks_; }
  const SuperblockCache& superblocks() const { return superblocks_; }

  // --- architectural state ---
  uint32_t ReadReg(uint8_t index) const { return regs_[index & 31]; }
  void WriteReg(uint8_t index, uint32_t value) {
    if ((index & 31) != 0) {
      regs_[index & 31] = value;
    }
  }
  void SetPc(uint32_t pc);
  bool metal_mode() const { return arch_metal_; }
  // Where the fetch unit will fetch next (the frontend pc, not a committed
  // pc — the pipeline has no single architectural pc between retires).
  uint32_t fetch_pc() const { return fetch_pc_; }
  bool halted() const { return halted_; }
  uint32_t exit_code() const { return exit_code_; }
  bool has_fatal() const { return has_fatal_; }
  const Status& fatal_status() const { return fatal_; }
  uint64_t cycle() const { return cycle_; }
  bool in_machine_check() const { return in_machine_check_; }

  // --- fault injection (src/fault) ---
  // Attaches a fault-injection engine; its Tick() runs at the top of every
  // StepCycle, before any stage logic. Null detaches.
  void SetFaultEngine(FaultEngine* engine) { fault_engine_ = engine; }
  // Arms a one-shot corruption of the next completed load's response: the
  // loaded value becomes (value & and_mask) ^ xor_mask. Models a bus glitch;
  // the corruption is silent (no machine check) by design.
  void ArmBusFault(uint32_t and_mask, uint32_t xor_mask) {
    bus_fault_armed_ = true;
    bus_fault_and_ = and_mask;
    bus_fault_xor_ = xor_mask;
  }

  // Delivers a machine check (docs/robustness.md). Unlike ordinary traps,
  // machine checks are deliverable FROM Metal mode: the delegated recovery
  // mroutine starts a fresh Metal context whose mexit resumes the normal-mode
  // program at the aborted mroutine's m31. A machine check raised while one is
  // already being handled, or with no delegated recovery entry, is fatal.
  void RaiseMachineCheck(McheckKind kind, uint32_t info, uint32_t epc);

  // The shared structured-event tracer (components and the fault engine emit
  // through it; events are dropped unless a sink is attached).
  Tracer& tracer() { return tracer_; }

  const CoreStats& stats() const { return stats_; }
  void ResetStats();

  // Enumerable counters: every CoreStats field plus the cache/TLB/MRAM/Metal
  // unit and device counters, registered at construction (trace/metrics.h).
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  // Attaches a structured-event sink (trace/trace.h) fed by the pipeline and
  // all instrumented components; null detaches. Like the retirement trace,
  // emission costs one predictable branch when no sink is attached.
  void SetTraceSink(TraceSink* sink);

  // --- checkpoint/restore (src/snap) ---
  // Serializes the complete machine state: registers, every pipeline latch,
  // Metal unit, MRAM (with shadow/parity), TLB, caches, devices, statistics
  // and — when `include_dram` — physical memory (sparse). The byte stream is
  // deterministic: two machines in identical states serialize identically.
  // The host-tier superblock cache is not machine state and is not
  // serialized.
  void SaveState(SnapWriter& w, bool include_dram = true) const;
  // Inverse of SaveState; the superblock cache starts cold. The core must
  // have been constructed with the same CoreConfig (snapshot.h validates
  // this via CoreConfigHash before calling).
  Status RestoreState(SnapReader& r);
  // FNV-1a digest of the SaveState byte stream; cheap enough to evaluate per
  // cycle (no allocation). Excluding DRAM keeps it O(fixed state) — MRAM,
  // whose contents Metal code mutates, is always included.
  uint64_t StateDigest(bool include_dram = false) const;

  // Retirement trace: when set, the callback fires once per architecturally
  // retired instruction, in program order. Useful for debugging mroutines
  // (tools/msim --trace) and for test assertions; adds no cost when unset.
  struct RetireEvent {
    uint64_t cycle = 0;
    uint32_t pc = 0;
    uint32_t raw = 0;
    bool metal = false;  // retired under Metal privileges
  };
  using RetireTrace = std::function<void(const RetireEvent&)>;
  void SetRetireTrace(RetireTrace trace) { retire_trace_ = std::move(trace); }

 private:
  // In-flight instruction micro-state. Decode-stage replacement can merge a
  // CHAIN of transitions into one op (e.g. menter -> empty mroutine's mexit,
  // or an mexit whose resume instruction is itself a menter), so enters and
  // exits are counted; the committed mode after the op is simply the mode the
  // final replacement instruction decodes in (`metal`).
  // One folded decode-stage transition, recorded so trace events can be
  // emitted in committed order at EX (speculative chains that get squashed
  // are never emitted).
  struct ChainStep {
    bool is_enter = false;
    uint8_t entry = 0;    // enters: the target mroutine entry
    uint32_t pc = 0;      // pc of the replaced menter/mexit
    uint32_t target = 0;  // enters: handler address; exits: resume address
  };

  struct Op {
    bool valid = false;
    uint32_t pc = 0;
    Decoded d;
    bool metal = false;      // executes with Metal privileges; also the
                             // committed mode after any transition chain
    uint8_t enters = 0;      // menter transitions folded into this op
    uint8_t exits = 0;       // mexit transitions folded into this op
    uint32_t link = 0;       // m31 link value of the LAST menter in the chain
    std::array<ChainStep, 4> chain{};  // bounded by the replacement guard
    uint8_t chain_len = 0;
    bool intercepted = false;
    uint8_t intercept_entry = 0;
    ExcCause fetch_fault = ExcCause::kNone;
    uint32_t fetch_fault_addr = 0;

    bool has_transition() const { return enters != 0 || exits != 0; }
  };

  struct FetchSlot {
    bool valid = false;
    uint32_t pc = 0;
    uint32_t raw = 0;
    Decoded d;  // decoded at fetch; meaningful only when fault == kNone
    bool metal = false;
    ExcCause fault = ExcCause::kNone;
    uint32_t fault_addr = 0;
  };

  // Pending D-side access occupying the MEM stage.
  struct MemOp {
    bool valid = false;
    uint32_t pc = 0;
    InstrKind kind = InstrKind::kIllegal;
    bool metal = false;
    bool is_store = false;
    uint32_t vaddr = 0;   // as computed at EX (virtual for normal-mode ops)
    uint32_t paddr = 0;
    uint32_t store_value = 0;
    uint32_t raw = 0;
    uint8_t rd = 0;
    uint32_t wait = 0;    // remaining cycles
    enum class Target { kDram, kMmio, kMramData } target = Target::kDram;
  };

  // Runs the owed device tick, if any: a tick below the horizon, so it only
  // brings cycle-derived device state (timer COUNT) up to date.
  void CatchUpDevices() {
    if (owed_device_tick_ != 0) {
      bus_.TickDevices(owed_device_tick_, intc_);
      owed_device_tick_ = 0;
    }
  }

  // StepFast's cheapest entry conditions, inline so Run skips the
  // out-of-line call on the per-cycle path where StepFast would refuse: one
  // mode front to back (the committed and the fetch mode agree, no
  // transition in flight) and an idle fetch unit. StepFast then starts
  // from an empty pipeline, or adopts the latches (RunTraces), and checks
  // the remaining guards itself.
  bool FastStepMayStart() const {
    return arch_metal_ == frontend_metal_ && inflight_mode_ops_ == 0 && !fetch_inflight_ &&
           fetch_wait_ == 0;
  }

  // StepFast's trace executor for one mode (core.cc).
  template <bool metal>
  uint64_t RunTraces(uint64_t max_cycles, uint64_t max_retires);

  // --- stage logic ---
  void StageMem();
  void StageEx();
  void StageId();
  void StageIf();

  void ExecuteAluOp(Op& op);
  // The Metal-state ops (rmr, wmr, rcr, wcr, the TLB ops, mintset, mopr,
  // mopw) with operands a = rs1 and b = rs2: the one source of their
  // semantics for ExecuteAluOp and the trace executor.
  void ExecuteMetalOp(const Decoded& d, uint32_t a, uint32_t b);
  bool StartMemOp(const Op& op);  // pushes into ex_mem_; may trap

  // Retirement bookkeeping shared by the MEM and EX stages and the trace
  // executor: instret, the kRetire trace event and the retire hook.
  [[gnu::always_inline]] void Retire(uint32_t pc, uint32_t raw, bool metal) {
    ++stats_.instret;
    if (metal) {
      ++stats_.metal_instret;
    }
    tracer_.Emit(TraceEventKind::kRetire, pc, raw, 0, metal);
    if (retire_trace_) {
      retire_trace_(RetireEvent{cycle_, pc, raw, metal});
    }
  }

  // Decode-stage replacement chain for menter/mexit (fast transitions).
  void IdReplacementChain(Op& op);

  // Trap machinery. `m31` is the resume address stored into m31.
  void TakeTrapToEntry(uint32_t entry, uint32_t cause, uint32_t epc, uint32_t badvaddr,
                       uint32_t instr, uint32_t m31, bool faulting_op_is_metal);
  void TakeException(ExcCause cause, uint32_t epc, uint32_t badvaddr, uint32_t instr,
                     uint32_t m31, bool faulting_op_is_metal);
  void Fatal(const std::string& message);

  // Squashes younger instructions (IF/ID latches and in-flight fetch).
  void FlushFrontend();

  // Redirects fetch to `target` (after a taken branch/jump/trap).
  void RedirectFetch(uint32_t target);

  // Squashes the fetch unit and points it at `pc` (the shared primitive
  // behind SetPc, FlushFrontend and the decode-stage replacement chain).
  void ResetFetch(uint32_t pc);

  // Fetch helpers.
  struct FetchResult {
    bool ok = false;
    uint32_t raw = 0;
    Decoded d;  // filled (via DecodeMemoized) when ok
    uint32_t latency = 1;
    ExcCause fault = ExcCause::kNone;
    uint32_t fault_addr = 0;
  };
  FetchResult AccessFetch(uint32_t pc, bool metal_frontend, bool timing);

  // Memory-region classification + latency for a D-side physical access.
  uint32_t DataAccessLatency(uint32_t paddr, bool metal_op);

  bool InterruptDeliverable() const;

  // Registers every component's counters into metrics_ (constructor only).
  void RegisterMetrics();

  CoreConfig config_;
  Bus bus_;
  Mram mram_;
  Mmu mmu_;
  Cache icache_;
  Cache dcache_;
  SuperblockCache superblocks_;
  MetalUnit metal_;
  InterruptController intc_;
  TimerDevice timer_;
  NicDevice nic_;
  ConsoleDevice console_;

  std::array<uint32_t, 32> regs_{};
  uint64_t cycle_ = 0;

  // Device event horizon (docs/performance.md, "Per-cycle path under
  // fast_step"). Inside a fast_step Run: the first cycle whose device tick
  // may have an effect, recomputed after every firing tick and MMIO access.
  // 0 outside Run, so direct StepCycle calls tick every cycle.
  uint64_t device_horizon_ = 0;
  // The last cycle whose device tick was skipped below the horizon and has
  // not been caught up yet; 0 when none is owed. Ticks below the horizon
  // only move cycle-derived state, so one catch-up tick at this cycle
  // replaces all the skipped ones.
  uint64_t owed_device_tick_ = 0;

  // Fetch unit.
  uint32_t fetch_pc_ = 0;
  bool frontend_metal_ = false;
  bool fetch_inflight_ = false;
  uint32_t fetch_wait_ = 0;
  FetchSlot fetch_buffer_;  // completed fetch waiting for if_id_

  FetchSlot if_id_;
  Op id_ex_;
  MemOp ex_mem_;

  bool arch_metal_ = false;
  int inflight_mode_ops_ = 0;

  // Machine-check / watchdog state (docs/robustness.md).
  bool in_machine_check_ = false;       // set at delivery, cleared at committed mexit
  uint64_t metal_resident_cycles_ = 0;  // consecutive cycles with committed mode == Metal
  uint8_t last_metal_entry_ = 0;        // entry of the most recent Metal-mode entry
  FaultEngine* fault_engine_ = nullptr;
  bool bus_fault_armed_ = false;
  uint32_t bus_fault_and_ = 0xFFFFFFFFu;
  uint32_t bus_fault_xor_ = 0;

  // Host-tier memos of StepFast's pipeline adoption (RunTraces); neither is
  // machine state, and a restore clears both. sb_resume_ is where the last
  // trace run stopped uncommitted: the trace, its running segment's slot
  // base and the cycle. A call at that same cycle (the next Run chunk)
  // resumes that segment instead of building a trace at a mid-trace pc.
  // sb_refused_ is the pc of the last refused adoption and its cycle: a
  // call at the same pc one cycle later (EX or MEM held) refuses at once.
  struct SbResumePoint {
    Superblock* sb = nullptr;
    uint32_t base = 0;
    uint64_t cycle = ~uint64_t{0};
  } sb_resume_;
  struct SbRefusedEntry {
    uint32_t pc = 0;
    uint64_t cycle = ~uint64_t{0};
  } sb_refused_;

  // Hazard bookkeeping: rd of a load processed by EX this cycle (load-use).
  bool ex_load_this_cycle_ = false;
  uint8_t ex_load_rd_ = 0;
  bool redirect_this_cycle_ = false;

  RetireTrace retire_trace_;
  MetricRegistry metrics_;
  Tracer tracer_;

  bool halted_ = false;
  uint32_t exit_code_ = 0;
  bool has_fatal_ = false;
  Status fatal_;

  CoreStats stats_;
};

}  // namespace msim

#endif  // MSIM_CPU_CORE_H_
