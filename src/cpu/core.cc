#include "cpu/core.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "isa/semantics.h"
#include "snap/snapstream.h"
#include "support/log.h"

#include "support/strings.h"

namespace msim {
namespace {

uint32_t LowestSetBit(uint32_t mask) {
  for (uint32_t i = 0; i < 32; ++i) {
    if ((mask >> i) & 1u) {
      return i;
    }
  }
  return 0;
}

// The DRAM side of a load or store of `kind`, shared by StageMem and the
// trace executor's MEM slice: InstrInfo gives the access width, and a
// narrow load's sign or zero extension. nullopt/false on a bus error.
[[gnu::always_inline]] inline std::optional<uint32_t> DramLoad(Bus& bus, InstrKind kind,
                                                          uint32_t paddr) {
  const InstrInfo& info = GetInstrInfo(kind);
  std::optional<uint32_t> value;
  switch (info.mem_size) {
    case 1:
      value = bus.Read8(paddr);
      break;
    case 2:
      value = bus.Read16(paddr);
      break;
    default:
      return bus.Read32(paddr);
  }
  if (value && info.load_signed) {
    const uint32_t shift = 32 - 8 * info.mem_size;
    *value = static_cast<uint32_t>(static_cast<int32_t>(*value << shift) >> shift);
  }
  return value;
}

// True if the executor label of `d` reads a GPR operand before its MEM
// slice, and that operand is `rd`: branches and memory slots, which decide
// their exits before the cycle commits.
bool SbReadsBeforeMem(const Decoded& d, uint8_t rd) {
  const InstrInfo& info = d.info();
  return (info.is_branch || info.is_load || info.is_store) && InstrReadsGpr(d, rd);
}

[[gnu::always_inline]] inline bool DramStore(Bus& bus, InstrKind kind, uint32_t paddr,
                                             uint32_t value) {
  switch (GetInstrInfo(kind).mem_size) {
    case 1:
      return bus.Write8(paddr, static_cast<uint8_t>(value));
    case 2:
      return bus.Write16(paddr, static_cast<uint16_t>(value));
    default:
      return bus.Write32(paddr, value);
  }
}

}  // namespace

Core::Core(const CoreConfig& config)
    : config_(config),
      bus_(config.dram_size),
      mmu_(config.tlb_entries),
      icache_(config.icache_lines, config.icache_line_size, config.cache_hit_latency,
              config.dram_latency),
      dcache_(config.dcache_lines, config.dcache_line_size, config.cache_hit_latency,
              config.dram_latency),
      superblocks_(config.fast_step) {
  // Device map; AttachDevice only fails on overlap, which is impossible here.
  (void)bus_.AttachDevice(InterruptController::kDefaultBase, &intc_);
  (void)bus_.AttachDevice(TimerDevice::kDefaultBase, &timer_);
  (void)bus_.AttachDevice(NicDevice::kDefaultBase, &nic_);
  (void)bus_.AttachDevice(ConsoleDevice::kDefaultBase, &console_);
  // Observability wiring: one tracer shared by the pipeline and all
  // instrumented components, and a registry enumerating every counter.
  icache_.SetTracer(&tracer_, TraceEventKind::kICacheMiss);
  dcache_.SetTracer(&tracer_, TraceEventKind::kDCacheMiss);
  mram_.SetTracer(&tracer_);
  mmu_.SetTracer(&tracer_);
  metal_.SetTracer(&tracer_);
  mram_.SetParityEnabled(config.mram_parity);
  RegisterMetrics();
  SetLogCycleSource(&cycle_);
}

Core::~Core() {
  // Another core constructed later may have taken over the log prefix.
  if (GetLogCycleSource() == &cycle_) {
    SetLogCycleSource(nullptr);
  }
}

void Core::RegisterMetrics() {
  metrics_.Register("core", "cycles", &stats_.cycles, "simulated clock cycles");
  metrics_.Register("core", "instret", &stats_.instret, "retired instructions");
  metrics_.Register("core", "metal_instret", &stats_.metal_instret,
                    "instructions retired in Metal mode");
  metrics_.Register("core", "metal_cycles", &stats_.metal_cycles,
                    "cycles with the committed mode == Metal");
  metrics_.Register("core", "menters", &stats_.menters, "committed menter transitions");
  metrics_.Register("core", "mexits", &stats_.mexits, "committed mexit transitions");
  metrics_.Register("core", "fast_replacements", &stats_.fast_replacements,
                    "decode-stage menter/mexit replacements");
  metrics_.Register("core", "exceptions", &stats_.exceptions, "exceptions delivered");
  metrics_.Register("core", "interrupts", &stats_.interrupts, "interrupts delivered");
  metrics_.Register("core", "intercepts", &stats_.intercepts, "instructions intercepted");
  metrics_.Register("core", "control_flushes", &stats_.control_flushes,
                    "pipeline flushes from taken control transfers");
  metrics_.Register("core", "load_use_stalls", &stats_.load_use_stalls,
                    "1-cycle load-use bubbles");
  metrics_.Register("core", "machine_checks", &stats_.machine_checks,
                    "machine checks raised (delegated or fatal)");
  metrics_.Register("core", "watchdog_fires", &stats_.watchdog_fires,
                    "Metal-mode watchdog expirations");
  icache_.RegisterMetrics(metrics_, "icache");
  dcache_.RegisterMetrics(metrics_, "dcache");
  mmu_.tlb().RegisterMetrics(metrics_);
  mram_.RegisterMetrics(metrics_);
  superblocks_.RegisterMetrics(metrics_);
  metal_.RegisterMetrics(metrics_);
  metrics_.RegisterFn("nic", "packets_delivered",
                      [this] { return nic_.packets_delivered(); },
                      "packets handed to the rx queue");
  metrics_.RegisterFn("console", "bytes_written",
                      [this] { return static_cast<uint64_t>(console_.output().size()); },
                      "bytes written to the console device");
}

void Core::SetTraceSink(TraceSink* sink) {
  if (sink == nullptr) {
    tracer_.Detach();
  } else {
    tracer_.Attach(sink, &cycle_);
  }
}

Status Core::LoadProgram(const Program& program) {
  MSIM_RETURN_IF_ERROR(bus_.dram().LoadSection(program.text));
  MSIM_RETURN_IF_ERROR(bus_.dram().LoadSection(program.data));
  superblocks_.InvalidateAll();
  SetPc(program.entry);
  return Status::Ok();
}

void Core::SetPc(uint32_t pc) {
  ResetFetch(pc);
  if_id_.valid = false;
  id_ex_.valid = false;
  ex_mem_.valid = false;
  inflight_mode_ops_ = 0;
  frontend_metal_ = arch_metal_;
}

void Core::ResetStats() {
  stats_ = CoreStats{};
  icache_.ResetStats();
  dcache_.ResetStats();
  mmu_.tlb().ResetStats();
  mram_.ResetStats();
  superblocks_.ResetStats();
  metal_.ResetStats();
}

RunResult Core::Run(uint64_t max_cycles, uint64_t max_retires) {
  if (max_cycles == 0) {
    max_cycles = config_.default_max_cycles;
  }
  const uint64_t start_cycle = cycle_;
  const uint64_t start_instret = stats_.instret;
  // StepFast refuses every call while a fault engine is attached, so such a
  // run steps per cycle at one compare per cycle and counts one refusal.
  const bool traced = config_.fast_step && fault_engine_ == nullptr;
  if (config_.fast_step) {
    // Host-side device calls (SchedulePacket, register pokes, a restore) may
    // have moved the next event since the last Run.
    device_horizon_ = bus_.NextDeviceEventCycle(cycle_);
    if (!traced) {
      superblocks_.CountRefusal(SbRefusal::kFaultEngine);
    }
  }
  const auto running = [&] {
    return !halted_ && !has_fatal_ && cycle_ - start_cycle < max_cycles &&
           (max_retires == 0 || stats_.instret - start_instret < max_retires);
  };
  while (running()) {
    if (traced && FastStepMayStart()) {
      if (!arch_metal_ && metal_.AnyInterceptEnabled()) {
        // StepFast's intercept guard, counted without the call: transaction
        // bodies step per cycle with interception armed.
        superblocks_.CountRefusal(SbRefusal::kIntercept);
      } else if (StepFast(max_cycles - (cycle_ - start_cycle),
                          max_retires == 0 ? 0
                                           : max_retires - (stats_.instret - start_instret)) !=
                     0 &&
                 !running()) {
        break;
      }
    }
    // A StepFast call that commits cycles stops where no trace can go on
    // (or at the device horizon), so the next cycle is StepCycle's.
    StepCycle();
  }
  // Return with the devices current, so host code sees the same state as
  // after the per-cycle reference; outside Run every cycle ticks again.
  CatchUpDevices();
  device_horizon_ = 0;
  RunResult result;
  result.cycles = cycle_ - start_cycle;
  result.instret = stats_.instret;
  result.exit_code = exit_code_;
  if (has_fatal_) {
    result.reason = RunResult::Reason::kFatal;
    result.fatal_message = fatal_.message();
  } else if (halted_) {
    result.reason = RunResult::Reason::kHalted;
  } else {
    result.reason = RunResult::Reason::kCycleLimit;
  }
  return result;
}

void Core::StepCycle() {
  if (halted_ || has_fatal_) {
    return;
  }
  ++cycle_;
  stats_.cycles = cycle_;
  if (fault_engine_ != nullptr) {
    fault_engine_->Tick(*this);
    if (has_fatal_) {
      return;
    }
  }
  if (arch_metal_) {
    ++stats_.metal_cycles;
    ++metal_resident_cycles_;
  } else {
    metal_resident_cycles_ = 0;
  }
  // Metal-mode watchdog (docs/robustness.md): mroutines are non-interruptible,
  // so a runaway mroutine would otherwise hang the machine. When the committed
  // mode stays Metal for more than the configured budget, raise a machine
  // check; the counter restarts so the recovery mroutine gets a fresh budget.
  if (config_.metal_watchdog_cycles != 0 &&
      metal_resident_cycles_ > config_.metal_watchdog_cycles) {
    ++stats_.watchdog_fires;
    metal_resident_cycles_ = 0;
    RaiseMachineCheck(McheckKind::kWatchdog, last_metal_entry_,
                      id_ex_.valid ? id_ex_.pc : fetch_pc_);
    if (has_fatal_) {
      return;
    }
  }
  if (cycle_ >= device_horizon_) {
    bus_.TickDevices(cycle_, intc_);
    owed_device_tick_ = 0;
    if (device_horizon_ != 0) {
      device_horizon_ = bus_.NextDeviceEventCycle(cycle_);
    }
  } else {
    owed_device_tick_ = cycle_;
  }
  redirect_this_cycle_ = false;
  ex_load_this_cycle_ = false;
  StageMem();
  if (has_fatal_ || halted_) {
    return;
  }
  StageEx();
  if (has_fatal_ || halted_) {
    return;
  }
  StageId();
  StageIf();
}

// ---------------------------------------------------------------------------
// Hot-path stepping: the superblock trace tier
// ---------------------------------------------------------------------------
//
// StepFast commits cycles of the exact StepCycle state machine by executing
// superblock traces (cpu/superblock.h) of one mode: in normal mode, DRAM
// code with 1-cycle icache-hit fetches, no armed intercept and no
// deliverable interrupt; in Metal mode, mroutine code from MRAM with its
// 1-cycle fetch port. Either way there is no fault engine and no device
// event before the horizon. It starts on an empty pipeline — both latches
// invalid, MEM and the fetch unit idle: the state after a taken branch, a
// trap or intercept entry or a cold start — or adopts a live pipeline whose
// latches hold consecutive words of one trace (RunTraces), such as the
// cycles after a menter/mexit splice, a resumed miss or a Run boundary. It
// runs trace to trace until a trace exit leaves an op latched or no ready
// trace starts at the refill pc. The caller then continues with StepCycle,
// the per-cycle reference.
//
// Every condition that could make a cycle deviate from the trace's shape is
// checked BEFORE the cycle is committed, so a StepFast exit always lands on
// a state StepCycle can continue from, and N committed cycles leave the
// machine byte-identical (SaveState stream, including stale latch fields
// and every counter) to N StepCycle calls. Guard stability: a call runs
// traces of one mode only (no trace holds menter, mexit or wcr), memory
// slots never reach MMIO, and Metal traces never translate, so interrupt
// enables, intercept and paging configuration, device state and the
// translations a normal-mode trace depends on cannot change between the
// entry checks and the exit.

uint64_t Core::StepFast(uint64_t max_cycles, uint64_t max_retires) {
  if (!config_.fast_step || max_cycles == 0 || halted_ || has_fatal_ || !FastStepMayStart()) {
    return 0;
  }
  // Global eligibility, each refusal counted by guard. Nothing here can
  // change inside a call. bus_fault_armed_ is normally implied by
  // fault_engine_, but can survive it via checkpoint restore — the armed
  // corruption must land through the per-cycle MEM stage. Normal mode:
  // paging state, ASID, KEYPERM and TLB contents move only under Metal-only
  // instructions, so paged traces are sound — every translation is
  // re-probed, side-effect-free, and a miss or permission failure exits to
  // the per-cycle machinery, which then counts the miss and raises the
  // fault. Metal mode: interception and interrupts do not apply, and the
  // watchdog budget clamps the call instead of refusing it.
  const bool metal = arch_metal_;
  const uint64_t watchdog = config_.metal_watchdog_cycles;
  SbRefusal refusal = SbRefusal::kCount;
  if (fault_engine_ != nullptr) {
    refusal = SbRefusal::kFaultEngine;
  } else if (in_machine_check_) {
    refusal = SbRefusal::kMachineCheck;
  } else if (bus_fault_armed_) {
    refusal = SbRefusal::kBusFault;
  } else if (config_.cache_hit_latency != 1 || (metal && config_.mram_latency != 1)) {
    refusal = SbRefusal::kLatency;
  } else if (metal) {
    if (config_.mroutine_storage != MroutineStorage::kMram || !Mram::InCodeRange(fetch_pc_)) {
      refusal = SbRefusal::kMetalStorage;
    } else if (watchdog != 0 && metal_resident_cycles_ >= watchdog) {
      refusal = SbRefusal::kWatchdog;  // the next cycle fires it
    }
  } else if (metal_.AnyInterceptEnabled()) {
    refusal = SbRefusal::kIntercept;
  } else if ((intc_.pending() & metal_.ienable()) != 0) {
    refusal = SbRefusal::kInterrupt;
  }
  if (refusal != SbRefusal::kCount) {
    superblocks_.CountRefusal(refusal);
    return 0;
  }
  if (!metal) {
    return RunTraces<false>(max_cycles, max_retires);
  }
  // Commit at most up to the cycle before the watchdog would fire.
  return RunTraces<true>(
      watchdog != 0 ? std::min(max_cycles, watchdog - metal_resident_cycles_) : max_cycles,
      max_retires);
}

// The trace executor behind StepFast, compiled once per mode so that a
// normal-mode trace pays nothing for Metal semantics and vice versa. Its
// caller has checked every entry guard.
template <bool metal>
uint64_t Core::RunTraces(uint64_t max_cycles, uint64_t max_retires) {
  const uint64_t start = cycle_;
  // First cycle at which any device tick has an effect; cycles strictly below
  // it need no TickDevices call. Stable across traces: their memory traffic
  // never reaches MMIO, so no store can move a device's next event. Inside
  // Run it is the cached horizon.
  const uint64_t horizon =
      device_horizon_ != 0 ? device_horizon_ : bus_.NextDeviceEventCycle(cycle_);
  // The cycle budget and the horizon as one bound: a cycle may commit only
  // while cycle_ < cycle_limit, so no committed cycle reaches the horizon
  // or exceeds max_cycles. The retire bound likewise, 0 meaning unlimited.
  const uint64_t cycle_limit =
      start + std::min(max_cycles, horizon > start ? horizon - 1 - start : 0);
  const uint64_t retire_limit = max_retires == 0 ? ~uint64_t{0} : max_retires;
  const uint32_t dram_size = bus_.dram().size();
  // Translation context (normal mode only: Metal mode is physical). Stable
  // across traces: PGENABLE/ASID/KEYPERM move only under wcr, which no trace
  // holds, and the TLB only under Metal-only instructions, which
  // normal-mode traces never hold.
  const bool translate = !metal && metal_.paging_enabled();
  const uint16_t asid = metal_.asid();
  const uint32_t keyperm = metal_.keyperm();
  const SbCode code{bus_.dram(), mram_, SbAddrSpace{translate ? &mmu_ : nullptr, asid, keyperm}};
  uint64_t retired = 0;
  uint32_t pc = fetch_pc_;
  bool last_redirect = false;
  uint64_t icache_hits = 0;
  uint64_t dcache_hits = 0;
  uint64_t tlb_hits = 0;  // fetch + data translations, credited in one batch

  // Pending MEM-stage op shadow. A memory-slot dispatch latches the access
  // here with its wait (1 for a hit or an MRAM access, the miss latency for
  // a dcache miss); each later committed cycle's MEM-stage slice counts it
  // down and completes it at 0. Mirrors ex_mem_: consuming only drops
  // `valid` (wait is 0 by then), the payload goes stale in place, so the
  // shadow is written back whenever any memory slot ran.
  MemOp sb_pend;
  bool sb_mem_any = false;
  // Load-use shadow for writeback: per-cycle, ex_load_this_cycle_ is true at
  // exit iff the LAST committed cycle dispatched a load. Recording the
  // dispatch cycle number makes that a single compare at exit instead of a
  // per-cycle reset.
  uint64_t load_dispatch_cycle = ~uint64_t{0};
  uint8_t ex_load_rd = ex_load_rd_;

  // The running segment's physical code pages (equal for a one-page run),
  // set at every segment entry; kNoCodePage for a Metal segment, whose code
  // no store reaches. sb_exact turns on the per-fetch DRAM check for the
  // rest of the segment once a store to one of them is latched or
  // completes: only then can a word the segment still fetches change.
  constexpr uint32_t kNoCodePage = ~0u;
  uint32_t code_page0 = kNoCodePage;
  uint32_t code_page1 = kNoCodePage;
  bool sb_exact = false;
  const auto sb_code_page = [&](uint32_t paddr) {
    const uint32_t page = paddr >> PhysicalMemory::kPageBits;
    return page == code_page0 || page == code_page1;
  };

  // Trace exit: writes the executor's latch shadows into the member latches
  // exactly as a per-cycle run would hold them. sh_ex/sh_id/sh_buf are the
  // slots whose payloads were last shifted into EX, ID and the skid buffer
  // (consumed payloads stay stale in place; null means this trace run never
  // refilled that latch), and the valid bits say which of them are live.
  const auto sb_writeback_latches = [this](const SbSlot* sh_ex, const SbSlot* sh_id,
                                           const SbSlot* sh_buf, bool ex_valid, bool id_valid,
                                           bool buf_valid) {
    if (sh_ex != nullptr) {
      // StageId default-constructs the op it shifts in: every field but
      // pc/d/metal is reset.
      id_ex_ = Op{};
      id_ex_.pc = sh_ex->addr;
      id_ex_.d = sh_ex->d;
      id_ex_.metal = metal;
    }
    id_ex_.valid = ex_valid;
    for (const auto& [slot, latch] :
         {std::pair{sh_id, &if_id_}, std::pair{sh_buf, &fetch_buffer_}}) {
      if (slot != nullptr) {
        *latch = FetchSlot{};
        latch->pc = slot->addr;
        latch->raw = slot->d.raw;
        latch->d = slot->d;
        latch->metal = metal;
      }
    }
    if_id_.valid = id_valid;
    fetch_buffer_.valid = buf_valid;
  };

  const uint32_t sb_icache_line = config_.icache_line_size;
  // Segment readiness sweep, run once per trace-segment entry. Every fetch
  // inside a normal-mode segment must be a faultless, 1-cycle icache hit;
  // neither the icache (hits do not allocate, D-side traffic never touches
  // it) nor the translation of the segment's pages (Metal-only mutations)
  // can change in-trace, so one sweep stands in for a per-fetch
  // Probe/Translate. Under paging, the pages must additionally be resident,
  // executable, key-readable and map at ONE common delta (the build-time
  // slot addresses are virtual; `*delta` rebases them). A Metal segment
  // needs none of this: the MRAM fetch port has no icache and no
  // translation.
  //
  // Then the ready prefix is validated against its code store
  // (SuperblockCache::SegmentCurrent, which invalidates the trace if a word
  // changed), and the segment becomes the running one: its code pages are
  // recorded and the exact fetch check is off.
  //
  // Returns the number of LEADING slots that are ready (0 rejects the
  // segment). The executor runs the segment truncated to that prefix —
  // byte-exact, because a truncated segment is indistinguishable from a
  // shorter trace: the fetch guard exits before the first cold word, and
  // StepCycle takes the same cycles to the same probe/translate failure.
  // Truncation matters: a trace's cold suffix (a fall-through path the
  // guest has not reached) must not keep its hot prefix — e.g. a loop body
  // ending in a strongly taken back edge — out of the executor. Out of line:
  // it runs once per segment entry, and inlining its three call sites only
  // grows the executor.
  auto sb_seg_ready = [&](Superblock& sb, SbSegment& seg,
                          uint32_t* delta) __attribute__((noinline)) -> uint32_t {
    uint32_t d = 0;
    uint32_t vlimit = seg.start + 4 * seg.len;
    if (translate) {
      bool have_d = false;
      for (uint32_t page = seg.start & ~4095u; page < vlimit; page += 4096u) {
        const uint32_t va = page < seg.start ? seg.start : page;
        const uint32_t vend = page + 4096u < vlimit ? page + 4096u : vlimit;
        const TranslateResult tr =
            mmu_.ProbeTranslate(va, AccessType::kFetch, asid, keyperm);
        if (!tr.ok || tr.paddr >= kMmioBase ||
            static_cast<uint64_t>(tr.paddr) + (vend - va) > dram_size ||
            (have_d && tr.paddr - va != d)) {
          // Miss, fault, out of DRAM, or a discontiguous mapping: the ready
          // prefix ends at this page boundary.
          vlimit = va;
          break;
        }
        d = tr.paddr - va;
        have_d = true;
      }
    }
    if (!metal) {
      const uint32_t first = seg.start + d - ((seg.start + d) % sb_icache_line);
      for (uint32_t a = first; a < vlimit + d; a += sb_icache_line) {
        if (!icache_.Probe(a)) {
          const uint32_t va = a - d;
          vlimit = va < seg.start ? seg.start : va;
          break;
        }
      }
    }
    const uint32_t ready = (vlimit - seg.start) / 4;
    if (ready < kSuperblockMinLen || !superblocks_.SegmentCurrent(sb, seg, ready, d, code)) {
      return 0;
    }
    *delta = d;
    if (!metal) {
      code_page0 = seg.page[0];
      code_page1 = seg.page[1];
    }
    sb_exact = false;
    return ready;
  };

  // Pipeline adoption: the entry prologue for a non-empty pipeline, the
  // inverse of sb_writeback_latches. The latches must hold consecutive words
  // of one ready trace segment, in the call's mode, as plain ops: EX (when
  // valid) is executable slot e, ID slot e + 1, a valid skid buffer slot
  // e + 2 (depth 1), and the fetch pc the slot after those. With EX empty
  // (a refill cycle or a load-use bubble) ID's slot is e + 1 = 0 or later.
  // The segment is the one the last trace run stopped in at this cycle
  // (sb_resume_), else the root of the trace at EX's (or ID's) pc, looked up
  // or built as at a refill. ex_mem_, live or stale, becomes the pending MEM
  // op: a live one must be a DRAM (or, in Metal mode, MRAM data) access of
  // the call's mode that the executor's MEM slice completes exactly, and a
  // multi-cycle one commits its frozen window through sb_freeze_fetch, as a
  // dispatched miss does. Returns the segment and e, or a null trace after
  // counting a refusal. Out of line: it runs once per call.
  struct SbAdoption {
    Superblock* sb = nullptr;
    SbSegment* seg = nullptr;
    uint32_t ready = 0;
    uint32_t delta = 0;
    int32_t e = 0;
  };
  auto sb_adopt = [&]() __attribute__((noinline)) -> SbAdoption {
    const bool ex = id_ex_.valid;
    const uint32_t entry_pc = ex ? id_ex_.pc : if_id_.pc;
    const MemOp& mem = ex_mem_;
    const bool window = mem.valid && mem.wait > 1;
    // `memo`: remember the refused pc, so the next cycle's call at the same
    // pc (EX or MEM held, nothing else moved) refuses without a second
    // lookup, build walk or segment probe.
    const auto refuse = [&](bool memo) -> SbAdoption {
      superblocks_.CountRefusal(SbRefusal::kPipeline);
      if (memo) {
        sb_refused_ = {entry_pc, cycle_};
      }
      return {};
    };
    const auto plain = [](const FetchSlot& f) {
      return f.valid && f.metal == metal && f.fault == ExcCause::kNone && f.fault_addr == 0;
    };
    if (!plain(if_id_) || (fetch_buffer_.valid && !plain(fetch_buffer_)) ||
        (ex && (id_ex_.metal != metal || id_ex_.has_transition() || id_ex_.intercepted ||
                id_ex_.fetch_fault != ExcCause::kNone))) {
      return refuse(false);
    }
    if (mem.valid &&
        (mem.metal != metal || mem.wait == 0 ||
         (mem.target == MemOp::Target::kDram
              ? mem.paddr >= dram_size || dram_size - mem.paddr < GetInstrInfo(mem.kind).mem_size
              : !metal || mem.target != MemOp::Target::kMramData ||
                    (!mem.is_store && !mram_.DataParityOk(mem.paddr))))) {
      return refuse(false);
    }
    if (entry_pc == sb_refused_.pc && cycle_ == sb_refused_.cycle + 1) {
      return refuse(true);
    }
    SbAdoption a;
    if (sb_resume_.cycle == cycle_ && sb_resume_.sb != nullptr && sb_resume_.sb->valid &&
        sb_resume_.sb->metal == metal) {
      for (SbSegment& seg : sb_resume_.sb->segs) {
        if (seg.base == sb_resume_.base) {
          a.sb = sb_resume_.sb;
          a.seg = &seg;
        }
      }
    }
    if (a.sb == nullptr) {
      a.sb = superblocks_.Lookup(entry_pc, metal);
      if (a.sb == nullptr) {
        a.sb = superblocks_.Build(entry_pc, metal, code);
      } else if (a.sb->grow_pending) {
        superblocks_.MaybeGrow(*a.sb, code);
      }
      if (a.sb == nullptr) {
        return refuse(true);
      }
      a.seg = &a.sb->segs[0];
    }
    a.ready = sb_seg_ready(*a.sb, *a.seg, &a.delta);
    const uint32_t offset = entry_pc - a.seg->start;
    if (a.ready < kSuperblockMinLen || offset % 4 != 0 || offset / 4 >= a.ready) {
      return refuse(true);
    }
    const SbSlot* slots = a.sb->slots.data() + a.seg->base;
    const int32_t len = static_cast<int32_t>(a.ready);
    const int32_t exec_len = static_cast<int32_t>(std::min(a.seg->exec_len, a.ready));
    const int32_t depth = fetch_buffer_.valid ? 1 : 0;
    a.e = static_cast<int32_t>(offset / 4) - (ex ? 0 : 1);
    const auto holds = [&](int32_t i, uint32_t latch_pc, uint32_t raw) {
      return i < len && slots[i].addr == latch_pc && slots[i].d.raw == raw;
    };
    if ((ex && (a.e >= exec_len || slots[a.e].d.raw != id_ex_.d.raw)) ||
        !holds(a.e + 1, if_id_.pc, if_id_.raw) ||
        (depth != 0 && !holds(a.e + 2, fetch_buffer_.pc, fetch_buffer_.raw)) ||
        fetch_pc_ != a.seg->start + 4 * static_cast<uint32_t>(a.e + 2 + depth)) {
      return refuse(true);
    }
    // A multi-cycle op commits its frozen window in one step, as after an
    // in-trace miss: at depth 0 the skid slot its first frozen cycle
    // fetches must be ready (one slot further when the bubble cycle goes
    // first).
    const bool code_store = mem.valid && mem.is_store &&
                            mem.target == MemOp::Target::kDram && sb_code_page(mem.paddr);
    if (window && (code_store || (depth == 0 && a.e + (ex ? 2 : 3) >= len))) {
      return refuse(true);
    }
    // A store into the segment's code still to land: the exact fetch check
    // merges it, as for an in-trace store.
    sb_exact |= code_store;
    return a;
  };

// Superblock executor cycle fragments (see the executor loop below). Each
// committed trace cycle performs exactly StepCycle's work for that cycle —
// same counters, same tracer events, same latch evolution — with the
// per-cycle decode and branch evaluation compiled away at build time.
//
// Pre-commit fetch check for the cycle's speculative fetch. The fetch slot
// is e + 2 + depth: at depth 1 (live load-use skid) the frontend runs one
// slot ahead, with the extra word parked in the skid buffer.
// Decide-then-commit: every exit taken here abandons the cycle with no side
// effects. The first guard stops the trace when the word about to shift
// into EX (slot e + 1) is past the executable run: that cycle, and the
// fetch-only word it would shift into EX, are left to StepCycle.
//
// Fetched words need no check while the segment's code pages are unchanged
// since its entry validation. Once a store to one of them is latched
// (sb_exact), every fetch re-reads its word. A store completing this cycle
// lands before IF (MEM runs first), so its bytes are merged into the word:
// a store into the executing trace's own words (self-modifying code)
// invalidates the trace and exits before the cycle commits.
#define MSIM_SB_FETCH_OR_EXIT()                                          \
  do {                                                                   \
    const int32_t sb_f = e + 2 + depth;                                  \
    if (e + 1 >= exec_len || sb_f >= len) {                              \
      goto sb_exit_uncommitted;                                          \
    }                                                                    \
    if (sb_exact) [[unlikely]] {                                         \
      const SbSlot& sb_fs = slots[sb_f];                                 \
      const uint32_t sb_fpa = sb_fs.addr + fdelta;                       \
      const auto sb_word = bus_.dram().Read32(sb_fpa);                   \
      if (!sb_word) {                                                    \
        goto sb_exit_stale;                                              \
      }                                                                  \
      uint32_t sb_w = *sb_word;                                          \
      if (sb_pend.valid && sb_pend.wait == 1 && sb_pend.is_store &&      \
          (sb_pend.paddr & ~3u) == sb_fpa) {                             \
        const uint32_t sb_sh = (sb_pend.paddr & 3u) * 8;                 \
        const uint32_t sb_m =                                            \
            ~0u >> (32 - 8 * GetInstrInfo(sb_pend.kind).mem_size);       \
        sb_w = (sb_w & ~(sb_m << sb_sh)) |                               \
               ((sb_pend.store_value & sb_m) << sb_sh);                  \
      }                                                                  \
      if (sb_w != sb_fs.d.raw) {                                         \
        goto sb_exit_stale;                                              \
      }                                                                  \
    }                                                                    \
  } while (0)

// The counting side of one committed fetch of slot `s`, as StageIf's
// AccessFetch counts it: an MRAM fetch-port read in a Metal trace, otherwise
// an icache hit plus a TLB hit when translating (credited in bulk at exit).
#define MSIM_SB_NOTE_FETCH(s)                                            \
  do {                                                                   \
    if (metal) {                                                         \
      mram_.NoteCachedFetch((s).addr);                                   \
    } else {                                                             \
      ++icache_hits;                                                     \
      if (translate) {                                                   \
        ++tlb_hits;                                                      \
      }                                                                  \
    }                                                                    \
  } while (0)

// Post-commit fetch bookkeeping: the fetch's counting events, the ID -> EX
// shift, and the latch-payload shadow pointers. sh_ex/sh_id/sh_buf track
// which slot's payload a per-cycle run would have left in each latch and in
// the skid buffer; they are written into the member latches only at
// executor exit (sb_writeback_latches). Every started fetch rewrites the
// buffer payload; at depth 0 delivery is same-cycle (ID gets the same
// word), at depth 1 ID consumes the PREVIOUS buffered word and the new word
// parks.
#define MSIM_SB_COMMIT_FETCH()                                           \
  do {                                                                   \
    const SbSlot& sb_fs = slots[e + 2 + depth];                          \
    MSIM_SB_NOTE_FETCH(sb_fs);                                           \
    if (e >= -1) {                                                       \
      sh_ex = sh_id;                                                     \
    }                                                                    \
    sh_id = depth != 0 ? sh_buf : &sb_fs;                                \
    sh_buf = &sb_fs;                                                     \
    ++e;                                                                 \
    pc = sb_fs.addr + 4;                                                 \
  } while (0)

// Top-of-cycle MEM stage: counts the pending memory op down and completes it
// at 0. StageMem runs before every other stage, so this expands right after
// each ++cycle_, BEFORE the cycle's EX work and events. Semantics are
// StageMem's DRAM and MRAM-data paths: consuming drops `valid` (the wait is
// 0, the payload stale in place), the access goes through the same
// DramLoad/DramStore or Mram port, and the op retires with the MEM-stage
// kRetire event ordering. A completed DRAM store to the running segment's
// code pages turns on the exact fetch check; it matters after a tree
// transition, which validates the new segment before this cycle's store
// lands.
#define MSIM_SB_COMPLETE_PEND()                                          \
  do {                                                                   \
    if (sb_pend.valid && --sb_pend.wait == 0) {                          \
      sb_pend.valid = false;                                             \
      if (metal && sb_pend.target == MemOp::Target::kMramData) {         \
        if (sb_pend.is_store) {                                          \
          (void)mram_.WriteData32(sb_pend.paddr, sb_pend.store_value);   \
        } else {                                                         \
          const uint32_t sb_ld =                                         \
              mram_.ReadData32(sb_pend.paddr).value_or(0);               \
          if (sb_pend.rd != 0) {                                         \
            regs_[sb_pend.rd] = sb_ld;                                   \
          }                                                              \
        }                                                                \
      } else if (sb_pend.is_store) {                                     \
        (void)DramStore(bus_, sb_pend.kind, sb_pend.paddr,               \
                        sb_pend.store_value);                            \
        sb_exact |= sb_code_page(sb_pend.paddr);                         \
      } else {                                                           \
        const uint32_t sb_ld =                                           \
            DramLoad(bus_, sb_pend.kind, sb_pend.paddr).value_or(0);     \
        if (sb_pend.rd != 0) {                                           \
          regs_[sb_pend.rd] = sb_ld;                                     \
        }                                                                \
      }                                                                  \
      ++retired;                                                         \
      Retire(sb_pend.pc, sb_pend.raw, metal);                            \
    }                                                                    \
  } while (0)

// EX-stage commit of a memory slot's fast path (sb_x_mem, sb_x_mram): the
// pre-checked access becomes the pending MEM op, with StartMemOp's counter
// effects replayed — a dcache hit (credited in bulk) or, for a miss, the
// dcache_.Access call that counts it and fills the line, and a TLB hit when
// translating — and the load-use shadow updated for loads. store_value is
// latched for loads too (StartMemOp reads rs2 unconditionally), keeping the
// written-back ex_mem_ payload byte-identical. A store to the running
// segment's code pages turns on the exact fetch check before the cycle that
// completes it.
#define MSIM_SB_MEM_DISPATCH(mem_target)                                 \
  do {                                                                   \
    uint32_t sb_wait = 1;                                                \
    if (sb_miss) [[unlikely]] {                                          \
      sb_wait = dcache_.Access(sb_pa);                                   \
      superblocks_.CountMissFreeze();                                    \
    } else {                                                             \
      superblocks_.CountMemFastHit();                                    \
      if ((mem_target) == MemOp::Target::kDram) {                        \
        ++dcache_hits;                                                   \
      }                                                                  \
    }                                                                    \
    if (translate) {                                                     \
      ++tlb_hits;                                                        \
    }                                                                    \
    sb_pend.valid = true;                                                \
    sb_pend.pc = es->addr;                                               \
    sb_pend.kind = es->d.kind;                                           \
    sb_pend.metal = metal;                                               \
    sb_pend.is_store = sb_st;                                            \
    sb_pend.vaddr = sb_va;                                               \
    sb_pend.paddr = sb_pa;                                               \
    sb_pend.store_value = MSIM_SB_B;                                     \
    sb_pend.raw = es->d.raw;                                             \
    sb_pend.rd = es->d.rd;                                               \
    sb_pend.wait = sb_wait;                                              \
    sb_pend.target = (mem_target);                                       \
    sb_mem_any = true;                                                   \
    if (sb_st) {                                                         \
      sb_exact |= sb_code_page(sb_pa);                                   \
    } else {                                                             \
      load_dispatch_cycle = cycle_;                                      \
      ex_load_rd = es->d.rd;                                             \
    }                                                                    \
  } while (0)

// The dispatch of a pre-checked memory slot (sb_x_mem, sb_x_mram), using
// the label's block-local sb_st/sb_va/sb_pa/sb_miss and the MemOp target
// `mem_target`.
//
// Plain dispatch: the access becomes the pending MEM op and the frontend
// keeps streaming. A miss then freezes the pipeline: its first frozen cycle
// counts MEM down, EX holds its op (MEM is busy), ID holds, and a free skid
// buffer takes one fetch; sb_freeze_fetch commits the window.
//
// Load-use stall (stall_after): the next slot reads this load's rd, so
// StageId holds it and emits kStall. At depth 0 the cycle's fetch still
// runs, parking its word in the skid buffer; at depth 1 the buffer is
// already held and NO fetch starts (pc unchanged). Either way the next
// cycle is a forced bubble (sb_ex_empty), which a missed load also freezes
// after. The depth-1 stall needs a next executable slot, which stall_after
// implies.
#define MSIM_SB_MEM_GO(mem_target)                                       \
  do {                                                                   \
    if (!es->stall_after) {                                              \
      MSIM_SB_FETCH_OR_EXIT();                                           \
      ++cycle_;                                                          \
      MSIM_SB_COMPLETE_PEND();                                           \
      MSIM_SB_MEM_DISPATCH(mem_target);                                  \
      last_redirect = false;                                             \
      MSIM_SB_COMMIT_FETCH();                                            \
      if (!sb_miss) {                                                    \
        goto sb_next;                                                    \
      }                                                                  \
      goto sb_freeze_fetch;                                              \
    }                                                                    \
    if (depth == 0) {                                                    \
      MSIM_SB_FETCH_OR_EXIT();                                           \
      ++cycle_;                                                          \
      MSIM_SB_COMPLETE_PEND();                                           \
      MSIM_SB_MEM_DISPATCH(mem_target);                                  \
      ++stats_.load_use_stalls;                                          \
      tracer_.Emit(TraceEventKind::kStall, slots[e + 1].addr, 0, 0,      \
                   metal);                                               \
      const SbSlot& sb_fs = slots[e + 2];                                \
      MSIM_SB_NOTE_FETCH(sb_fs);                                         \
      sh_buf = &sb_fs;                                                   \
      pc = sb_fs.addr + 4;                                               \
      depth = 1;                                                         \
      last_redirect = false;                                             \
      goto sb_ex_empty;                                                    \
    }                                                                    \
    if (e + 1 >= exec_len) {                                             \
      goto sb_exit_uncommitted;                                          \
    }                                                                    \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    MSIM_SB_MEM_DISPATCH(mem_target);                                    \
    ++stats_.load_use_stalls;                                            \
    tracer_.Emit(TraceEventKind::kStall, slots[e + 1].addr, 0, 0, metal); \
    last_redirect = false;                                               \
    goto sb_ex_empty;                                                      \
  } while (0)

// Retire bookkeeping for an op of the call's mode (Core::Retire).
#define MSIM_SB_RETIRE(s)                                                \
  do {                                                                   \
    ++retired;                                                           \
    Retire((s).addr, (s).d.raw, metal);                                  \
  } while (0)

// Operand shorthands (pure register-file reads; x0 is hardwired zero by
// WriteReg never storing to it, so reads index the array directly).
#define MSIM_SB_A (regs_[es->d.rs1])
#define MSIM_SB_B (regs_[es->d.rs2])
#define MSIM_SB_IMM (static_cast<uint32_t>(es->d.imm))

// Executor labels, one per MSIM_TRACE_KINDS row, by class. Each passes its
// compile-time kind to isa/semantics.h, so the per-kind switch folds away.
//
// A straight-line op (Alu, Nop): fetch check, commit, pending
// completion (MEM before EX: a pending load's rd lands before this op's rd,
// which may alias it), EX work, retire, advance.
#define MSIM_SB_STRAIGHT(k, writeback)                                   \
  sb_x_##k : {                                                           \
    MSIM_SB_FETCH_OR_EXIT();                                             \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    writeback;                                                           \
    MSIM_SB_RETIRE(*es);                                                 \
    last_redirect = false;                                               \
    MSIM_SB_COMMIT_FETCH();                                              \
    goto sb_next;                                                        \
  }
#define MSIM_SB_Alu(k)                                                   \
  MSIM_SB_STRAIGHT(k, if (es->d.rd != 0) {                               \
    regs_[es->d.rd] =                                                    \
        AluResult(InstrKind::k, MSIM_SB_A, MSIM_SB_B, MSIM_SB_IMM, es->addr); \
  })
#define MSIM_SB_Nop(k) MSIM_SB_STRAIGHT(k, (void)0)

// A conditional branch: taken resolves via sb_taken_cond (bias counters and
// possible tree transition) with no fetch — the speculative fall-through
// word is squashed, exactly as per-cycle; not-taken is a straight-line
// cycle with no writeback. Operands read the CURRENT register file, before
// this cycle's MEM slice: a pending load completing this cycle never feeds
// them (stall_after inserts the bubble, and sb_load_use leaves the cycle
// after a frozen window to StepCycle). Bias counters freeze once the slot
// is linked or refused.
#define MSIM_SB_Branch(k)                                                \
  sb_x_##k : {                                                           \
    if (BranchTaken(InstrKind::k, MSIM_SB_A, MSIM_SB_B)) {               \
      sb_tgt = es->target;                                               \
      goto sb_taken_cond;                                                \
    }                                                                    \
    MSIM_SB_FETCH_OR_EXIT();                                             \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    if (es->taken_seg == kSbSegUnlinked) {                               \
      ++es->nottaken_n;                                                  \
    }                                                                    \
    MSIM_SB_RETIRE(*es);                                                 \
    last_redirect = false;                                               \
    MSIM_SB_COMMIT_FETCH();                                              \
    goto sb_next;                                                        \
  }

// A jump: no pre-commit check, so the target reads rs1 after MEM's rd write
// lands (a load completing this cycle may feed it) and BEFORE the link
// write (rd may alias rs1).
#define MSIM_SB_Jump(k)                                                  \
  sb_x_##k : {                                                           \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    sb_tgt = JumpTarget(InstrKind::k, MSIM_SB_A, MSIM_SB_IMM, es->addr); \
    if (es->d.rd != 0) {                                                 \
      regs_[es->d.rd] = AluResult(InstrKind::k, 0, 0, 0, es->addr);      \
    }                                                                    \
    goto sb_taken_commit;                                                \
  }

// Memory slots share one label per class (sb_x_mem, sb_x_mram): width and
// direction are read from InstrInfo at dispatch. Metal-state ops share
// sb_x_metal, which dispatches on the kind in ExecuteMetalOp.
#define MSIM_SB_Mem(k)
#define MSIM_SB_Mram(k)
#define MSIM_SB_Metal(k)
#define MSIM_SB_LABEL(k, cls) MSIM_SB_##cls(k)
#define MSIM_SB_TARGET_Alu(k) sb_x_##k
#define MSIM_SB_TARGET_Nop(k) sb_x_##k
#define MSIM_SB_TARGET_Branch(k) sb_x_##k
#define MSIM_SB_TARGET_Jump(k) sb_x_##k
#define MSIM_SB_TARGET_Metal(k) sb_x_metal
#define MSIM_SB_TARGET_Mem(k) sb_x_mem
#define MSIM_SB_TARGET_Mram(k) sb_x_mram

  // Executor state. The slot window: `slots` is the running segment's first
  // slot, `len` its ready slots, `exec_len` the executable ones, and
  // `fdelta` the physical rebase of their addresses (0 when unpaged,
  // identity-mapped or Metal). `e` is the slot position of the EX stage this
  // cycle; -2/-1 are the two refill cycles before slots[0] reaches EX.
  // Invariant after every committed cycle at depth 0: EX holds slot e, ID
  // holds slot e + 1, the next fetch is slot e + 2. A load-use stall or a
  // dcache miss enters the skid regime (depth 1): the buffer holds slot
  // e + 2 and fetches run one ahead, until a redirect drains it — exactly
  // the per-cycle skid.
  Superblock* sb = nullptr;
  SbSlot* slots = nullptr;
  int32_t len = 0;
  int32_t exec_len = 0;
  uint32_t fdelta = 0;
  int32_t e = -2;
  int32_t depth = 0;
  bool ex_empty = false;  // a cycle with EX empty in flight (sb_ex_empty)
  const SbSlot* sh_ex = nullptr;
  const SbSlot* sh_id = nullptr;
  const SbSlot* sh_buf = nullptr;
  SbSlot* es = nullptr;
  uint32_t sb_tgt = 0;
  uint64_t sb_entry_retired = 0;

  // Threaded dispatch: one indirect jump per instruction, indexed by the
  // slot's InstrKind. Kinds outside MSIM_TRACE_KINDS never reach a slot
  // (the build walk refuses them).
  static const std::array<const void*, static_cast<size_t>(InstrKind::kCount)> kSbGoto = ({
    std::array<const void*, static_cast<size_t>(InstrKind::kCount)> t;
    t.fill(&&sb_exit_uncommitted);
#define MSIM_SB_GOTO(k, cls) t[static_cast<size_t>(InstrKind::k)] = &&MSIM_SB_TARGET_##cls(k);
    MSIM_TRACE_KINDS(MSIM_SB_GOTO)
#undef MSIM_SB_GOTO
    t;
  });

  if (id_ex_.valid || if_id_.valid || fetch_buffer_.valid || ex_mem_.valid) {
    const SbAdoption adopted = sb_adopt();
    if (adopted.sb == nullptr) {
      return 0;
    }
    superblocks_.CountAdoption();
    sb = adopted.sb;
    slots = sb->slots.data() + adopted.seg->base;
    len = static_cast<int32_t>(adopted.ready);
    exec_len = static_cast<int32_t>(std::min(adopted.seg->exec_len, adopted.ready));
    fdelta = adopted.delta;
    e = adopted.e;
    depth = fetch_buffer_.valid ? 1 : 0;
    // EX keeps its own payload until a slot shifts in (sh_ex stays null).
    sh_id = &slots[e + 1];
    sh_buf = depth != 0 ? &slots[e + 2] : nullptr;
    sb_pend = ex_mem_;
    sb_mem_any = true;
    if (!id_ex_.valid) {
      goto sb_ex_empty;  // EX empty: ID's op shifts in, MEM counts down
    }
    if (sb_pend.valid && sb_pend.wait > 1) {
      goto sb_freeze_fetch;  // EX and ID held behind a multi-cycle MEM op
    }
    goto sb_load_use;
  }

  while (cycle_ < cycle_limit && retired < retire_limit) {
    // Refill point: both latches empty (the entry state, or the state after
    // a taken branch out of a trace). Every entry guard stays valid across
    // the whole call (see above), and no interrupt can become pending before
    // the horizon.
    {
      sb = superblocks_.Lookup(pc, metal);
      if (sb == nullptr) {
        sb = superblocks_.Build(pc, metal, code);
      } else if (sb->grow_pending) {
        // Deferred tree growth (a biased branch observed by an earlier
        // executor run) applies only at trace entry: the walk reallocates
        // slot storage, which must never happen while executor slot
        // pointers are live.
        superblocks_.MaybeGrow(*sb, code);
      }
      uint32_t entry_delta = 0;
      const uint32_t entry_len = sb != nullptr ? sb_seg_ready(*sb, sb->segs[0], &entry_delta) : 0;
      if (entry_len < kSuperblockMinLen) {
        break;  // no ready trace at the refill pc: per-cycle stepping takes over
      }
      superblocks_.CountExecution();
      slots = sb->slots.data();
      len = static_cast<int32_t>(entry_len);
      exec_len = static_cast<int32_t>(std::min(sb->exec_len, entry_len));
      fdelta = entry_delta;
    }
    sb_entry_retired = retired;
    e = -2;
    depth = 0;
    sh_ex = nullptr;
    sh_id = nullptr;
    sh_buf = nullptr;

  sb_next:
    // The loop's budget/horizon condition, re-checked per cycle with one
    // tightening: a cycle whose MEM stage completes a pending op can
    // retire TWO instructions (the completion plus the EX op), so a
    // live pending op reserves one unit of retire budget. Exiting a
    // cycle early is always sound — every exit is a per-cycle-exact
    // state — and the bound is what RunRetireLockstep relies on.
    if (!(cycle_ < cycle_limit && retired + (sb_pend.valid ? 1u : 0u) < retire_limit)) {
      goto sb_exit_uncommitted;
    }
    if (e < 0) {
      // Refill cycle: nothing in EX yet, fetch only.
      MSIM_SB_FETCH_OR_EXIT();
      ++cycle_;
      last_redirect = false;
      MSIM_SB_COMMIT_FETCH();
      goto sb_next;
    }
    es = &slots[e];
    goto *kSbGoto[static_cast<size_t>(es->d.kind)];

    MSIM_TRACE_KINDS(MSIM_SB_LABEL)

  sb_x_metal : {
    // A Metal-state op: a straight-line op whose EX work is ExecuteMetalOp.
    // The Metal-only classes are never reached in a normal-mode trace (the
    // build walk admits them into Metal traces only); the early exit keeps
    // their code out of the normal-mode executor.
    if (!metal) {
      goto sb_exit_uncommitted;
    }
    MSIM_SB_FETCH_OR_EXIT();
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
    ExecuteMetalOp(es->d, MSIM_SB_A, MSIM_SB_B);
    MSIM_SB_RETIRE(*es);
    last_redirect = false;
    MSIM_SB_COMMIT_FETCH();
    goto sb_next;
  }

  sb_x_mem : {
    // A DRAM memory slot in EX: StartMemOp's fast path, pre-checked with
    // no side effects. Misalignment (a fault per-cycle), a TLB miss or
    // permission/key failure, or an MMIO or out-of-bounds physical target
    // exits the trace UNCOMMITTED and replays the op through the per-cycle
    // machinery, which raises the fault or routes the access. Metal mode
    // and plw/psw are physical (StartMemOp), so only a normal-mode trace
    // translates.
    const InstrInfo& sb_info = es->d.info();
    const uint32_t sb_size = sb_info.mem_size;
    const bool sb_st = sb_info.is_store;
    const uint32_t sb_va = MSIM_SB_A + MSIM_SB_IMM;
    if ((sb_va & (sb_size - 1)) != 0) {
      goto sb_exit_mem_slow;
    }
    uint32_t sb_pa = sb_va;
    if (translate) {
      const TranslateResult sb_tr = mmu_.ProbeTranslate(
          sb_va, sb_st ? AccessType::kStore : AccessType::kLoad, asid,
          keyperm);
      if (!sb_tr.ok) {
        goto sb_exit_mem_slow;
      }
      sb_pa = sb_tr.paddr;
    }
    if (sb_pa >= kMmioBase || sb_pa + sb_size > dram_size) {
      goto sb_exit_mem_slow;
    }
    const bool sb_miss = !dcache_.Probe(sb_pa);
    // A dcache miss holds MEM for miss_wait cycles: the dispatch cycle,
    // then miss_wait - 1 frozen cycles committed in one step, up to the
    // budget and the horizon (sb_freeze_fetch). At depth 0 the skid slot the
    // first frozen cycle fetches must be ready. With the exact fetch check
    // on, a store into the running segment's code, or a degenerate miss
    // latency below two cycles, StepCycle takes the miss instead.
    // (A store completing in the dispatch cycle cannot turn the check on:
    // its own dispatch in this segment already did.)
    const uint32_t miss_wait = dcache_.miss_latency();
    if (sb_miss &&
        (miss_wait < 2 || sb_exact || (sb_st && sb_code_page(sb_pa)) ||
         (!es->stall_after && depth == 0 && e + 3 >= len))) [[unlikely]] {
      goto sb_exit_mem_slow;
    }
    MSIM_SB_MEM_GO(MemOp::Target::kDram);
  }

  sb_x_mram : {
    if (!metal) {
      goto sb_exit_uncommitted;
    }
    // An mld/mst in EX (Metal traces only): StartMemOp's MRAM data path,
    // one-cycle. A misaligned or out-of-range offset (a fault per-cycle),
    // or an mld of a word that fails parity (a machine check at MEM), exits
    // UNCOMMITTED for the per-cycle stages to raise. Nothing writes MRAM
    // data between this check and the completion but an mst completing
    // first, and an mst leaves good parity.
    const bool sb_st = es->d.kind == InstrKind::kMst;
    const uint32_t sb_va = MSIM_SB_A + MSIM_SB_IMM;
    if ((sb_va & 3) != 0 || sb_va > kMramDataSize - 4 ||
        (!sb_st && !mram_.DataParityOk(sb_va))) {
      goto sb_exit_mem_slow;
    }
    const uint32_t sb_pa = sb_va;
    constexpr bool sb_miss = false;
    MSIM_SB_MEM_GO(MemOp::Target::kMramData);
  }

  sb_ex_empty:
    // A cycle with EX empty and a MEM op possibly pending: the forced
    // bubble after a load-use stall, or the first cycle of an adopted
    // pipeline whose EX is empty. Nothing dispatches or retires from EX,
    // ID's op (the stalled consumer, after a stall) moves into EX, and the
    // frontend fetches (one ahead, from a live skid). A load that hit
    // completes at the top of this cycle; one that missed counts down here
    // and freezes after it.
    ex_empty = true;
    if (!(cycle_ < cycle_limit && retired + (sb_pend.valid ? 1u : 0u) < retire_limit)) {
      goto sb_exit_uncommitted;
    }
    MSIM_SB_FETCH_OR_EXIT();
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
    last_redirect = false;
    MSIM_SB_COMMIT_FETCH();
    ex_empty = false;
    if (sb_pend.wait <= 1) {
      goto sb_load_use;
    }

  sb_freeze_fetch:
    // A miss's first frozen cycle: MEM counts down, EX waits on MEM and ID
    // on EX, and a free skid buffer takes one fetch.
    if (cycle_ >= cycle_limit) {
      goto sb_exit_uncommitted;
    }
    ++cycle_;
    --sb_pend.wait;
    if (depth == 0) {
      const SbSlot& sb_fs = slots[e + 2];
      MSIM_SB_NOTE_FETCH(sb_fs);
      sh_buf = &sb_fs;
      pc = sb_fs.addr + 4;
      depth = 1;
    }
    // The rest of the frozen window: MEM counts down to its last cycle
    // while every other stage holds (the fetch unit on the full skid
    // buffer). Nothing retires or fetches and no event fires, so the cycles
    // commit in one step. A window that crosses the budget or the horizon
    // commits up to it and exits frozen, which is a per-cycle state too.
    {
      const uint64_t frozen = std::min<uint64_t>(sb_pend.wait - 1, cycle_limit - cycle_);
      cycle_ += frozen;
      sb_pend.wait -= static_cast<uint32_t>(frozen);
    }
    if (sb_pend.wait > 1) {
      goto sb_exit_uncommitted;
    }
  sb_load_use:
    // After a bubble or a frozen window a pending load may complete at the
    // top of the next cycle, in which EX runs slot e, its consumer. Branch
    // and memory slots read their operands before their MEM slice, so such
    // a consumer of the load's rd leaves that cycle to StepCycle.
    if (sb_pend.valid && !sb_pend.is_store && SbReadsBeforeMem(slots[e].d, sb_pend.rd))
        [[unlikely]] {
      goto sb_exit_uncommitted;
    }
    goto sb_next;

  sb_taken_cond:
    // Taken conditional branch: bias bookkeeping and tree transitions.
    if (es->taken_seg >= 1) {
      // The hot side was inlined as a tree segment. Entering it is the
      // same committed redirect cycle, continued in the new segment
      // without leaving the executor. The segment is validated before
      // this cycle's pending store lands; MSIM_SB_COMPLETE_PEND checks that
      // store against the new segment's code pages.
      SbSegment& sb_tseg = sb->segs[es->taken_seg];
      uint32_t sb_tdelta = 0;
      const uint32_t sb_tlen = sb_seg_ready(*sb, sb_tseg, &sb_tdelta);
      if (sb_tlen >= kSuperblockMinLen) {
        ++cycle_;
        MSIM_SB_COMPLETE_PEND();
        ++stats_.control_flushes;
        RedirectFetch(sb_tgt);
        MSIM_SB_RETIRE(*es);
        last_redirect = true;
        pc = fetch_pc_;
        superblocks_.CountTreeTransition();
        slots = sb->slots.data() + sb_tseg.base;
        len = static_cast<int32_t>(sb_tlen);
        exec_len = sb_tseg.exec_len < sb_tlen
                       ? static_cast<int32_t>(sb_tseg.exec_len)
                       : len;
        fdelta = sb_tdelta;
        e = -2;
        depth = 0;  // the redirect drained any live skid
        goto sb_next;
      }
    } else if (es->taken_seg == kSbSegUnlinked) {
      ++es->taken_n;
      if (es->taken_n >= kSbGrowMinTaken &&
          es->nottaken_n * 8 <= es->taken_n && !sb->grow_pending) {
        // Strongly biased: request growth. Applied at the next
        // trace-entry point, never mid-execution (see the loop top).
        sb->grow_pending = true;
        sb->grow_slot = static_cast<uint32_t>(es - sb->slots.data());
      }
    }
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
  sb_taken_commit:
    // ExecuteAluOp's taken-branch order: flush (kFlush event) first,
    // retire (kRetire event) second.
    ++stats_.control_flushes;
    RedirectFetch(sb_tgt);
    MSIM_SB_RETIRE(*es);
    last_redirect = true;
    pc = fetch_pc_;
    depth = 0;  // the redirect drained any live skid
    // EX consumed, ID squashed; sh_ex/sh_id keep their (now stale)
    // payloads, exactly like the member latches in a per-cycle run.
    {
      Superblock* sb_nt = superblocks_.Lookup(pc, metal);
      uint32_t sb_nt_delta = 0;
      const uint32_t sb_nt_len =
          sb_nt != nullptr ? sb_seg_ready(*sb_nt, sb_nt->segs[0], &sb_nt_delta) : 0;
      if (sb_nt_len >= kSuperblockMinLen) {
        // Chain: the branch target starts another cached trace. Stale
        // payload pointers stay valid — invalidation never frees slot
        // storage, and Build cannot run inside the executor.
        superblocks_.CountChain();
        sb = sb_nt;
        slots = sb_nt->slots.data();
        len = static_cast<int32_t>(sb_nt_len);
        exec_len = sb_nt->exec_len < sb_nt_len
                       ? static_cast<int32_t>(sb_nt->exec_len)
                       : len;
        fdelta = sb_nt_delta;
        e = -2;
        goto sb_next;
      }
    }
    // No trace at the target: leave the executor in the committed
    // post-redirect state (both latches empty, buffer drained by the
    // flush). The loop top may build one there.
    sb_writeback_latches(sh_ex, sh_id, sh_buf, false, false, false);
    superblocks_.CreditInstructions(retired - sb_entry_retired, metal);
    continue;

  sb_exit_mem_slow:
    // A memory slot that cannot take the fast path: exit uncommitted
    // with the op still in the EX latch, and StepCycle replays it with
    // full per-cycle semantics — miss counting, MMIO routing, faults.
    superblocks_.CountMemSlowExit();
    goto sb_exit_uncommitted;
  sb_exit_stale:
    // A store to the running segment's code pages — THIS trace's own,
    // possibly still pending — changed a word it fetches. Invalidate
    // before the fetching cycle commits.
    superblocks_.Invalidate(*sb);
  sb_exit_uncommitted:
    // Exit BEFORE the current cycle commits, with the latches exactly as a
    // per-cycle run would hold them here: slot e in EX (unless this
    // cycle's EX is empty), slot e + 1 in ID, the skid word in the buffer.
    // StepCycle continues this very cycle.
    sb_writeback_latches(sh_ex, sh_id, sh_buf, e >= 0 && !ex_empty,
                         e + 1 >= 0 && e + 1 < len, depth != 0);
    superblocks_.CreditInstructions(retired - sb_entry_retired, metal);
    sb_resume_ = {sb, static_cast<uint32_t>(slots - sb->slots.data()), cycle_};
    break;
  }

#undef MSIM_SB_FETCH_OR_EXIT
#undef MSIM_SB_NOTE_FETCH
#undef MSIM_SB_COMMIT_FETCH
#undef MSIM_SB_COMPLETE_PEND
#undef MSIM_SB_MEM_DISPATCH
#undef MSIM_SB_MEM_GO
#undef MSIM_SB_RETIRE
#undef MSIM_SB_A
#undef MSIM_SB_B
#undef MSIM_SB_IMM
#undef MSIM_SB_STRAIGHT
#undef MSIM_SB_Alu
#undef MSIM_SB_Nop
#undef MSIM_SB_Metal
#undef MSIM_SB_Branch
#undef MSIM_SB_Jump
#undef MSIM_SB_Mem
#undef MSIM_SB_Mram
#undef MSIM_SB_LABEL
#undef MSIM_SB_TARGET_Alu
#undef MSIM_SB_TARGET_Nop
#undef MSIM_SB_TARGET_Branch
#undef MSIM_SB_TARGET_Jump
#undef MSIM_SB_TARGET_Metal
#undef MSIM_SB_TARGET_Mem
#undef MSIM_SB_TARGET_Mram

  const uint64_t committed = cycle_ - start;
  superblocks_.CountCycles(committed);
  if (committed != 0) {
    // Exact member-state writeback (the trace exits wrote the latches).
    // Fields a per-cycle run would have left untouched keep their values;
    // fields it would have reset get the reset value.
    stats_.cycles = cycle_;
    if (metal) {
      // Every committed cycle began with the committed mode Metal.
      stats_.metal_cycles += committed;
      metal_resident_cycles_ += committed;
    } else {
      metal_resident_cycles_ = 0;
    }
    redirect_this_cycle_ = last_redirect;
    // True iff the LAST committed cycle dispatched a load (per-cycle resets
    // this every cycle and only a load's StageEx sets it).
    ex_load_this_cycle_ = load_dispatch_cycle == cycle_;
    ex_load_rd_ = ex_load_rd;
    if (sb_mem_any) {
      // Live pending op (valid, wait >= 1) or the stale payload of the last
      // completed one (valid false, wait 0) — both byte-identical to what
      // per-cycle StageMem would have left in the latch.
      ex_mem_ = sb_pend;
    }
    icache_.CreditHits(icache_hits);
    dcache_.CreditHits(dcache_hits);
    mmu_.tlb().CreditHits(tlb_hits);
    fetch_pc_ = pc;
    // The devices owe one tick at the current cycle. Sound because no
    // committed cycle reached the horizon: the tick observes the new cycle
    // count (e.g. the timer's COUNT register) but cannot fire anything, and
    // it is the FIRST tick at cycle_, so non-idempotent fire paths (periodic
    // timer re-arm) are never re-run. Inside Run it waits for the next
    // catch-up point; a direct call pays it here.
    owed_device_tick_ = cycle_;
    if (device_horizon_ == 0) {
      CatchUpDevices();
    }
  }
  return committed;
}

// ---------------------------------------------------------------------------
// Trap machinery
// ---------------------------------------------------------------------------

void Core::Fatal(const std::string& message) {
  if (has_fatal_) {
    return;  // keep the first (root-cause) report
  }
  has_fatal_ = true;
  fatal_ = Internal(message);
  MSIM_LOG(Error) << "fatal: " << message;
}

void Core::ResetFetch(uint32_t pc) {
  fetch_inflight_ = false;
  fetch_wait_ = 0;
  fetch_buffer_.valid = false;
  fetch_pc_ = pc;
}

void Core::FlushFrontend() {
  if_id_.valid = false;
  ResetFetch(fetch_pc_);
}

void Core::RedirectFetch(uint32_t target) {
  FlushFrontend();
  tracer_.Emit(TraceEventKind::kFlush, target, 0, 0, arch_metal_);
  fetch_pc_ = target;
  redirect_this_cycle_ = true;
}

void Core::TakeTrapToEntry(uint32_t entry, uint32_t cause, uint32_t epc, uint32_t badvaddr,
                           uint32_t instr, uint32_t m31, bool faulting_op_is_metal) {
  if (faulting_op_is_metal) {
    // mroutines are non-interruptible and must not fault (paper §2.1); a
    // fault inside Metal mode is a machine check (recoverable if delegated).
    RaiseMachineCheck(McheckKind::kDoubleTrap, cause, epc);
    return;
  }
  if (entry >= kMaxMroutines) {
    Fatal(StrFormat("undelegated trap: cause 0x%08x (%s) at pc=0x%08x", cause,
                    (cause & kInterruptCauseFlag) != 0
                        ? "interrupt"
                        : ExcCauseName(static_cast<ExcCause>(cause)),
                    epc));
    return;
  }
  const uint32_t handler = metal_.EntryAddress(entry);
  if (handler == 0) {
    Fatal(StrFormat("trap delegated to unconfigured mroutine entry %u (cause 0x%08x)", entry,
                    cause));
    return;
  }
  // Squash younger in-flight work. A speculatively entered/exited Metal mode
  // in ID/EX latches is rolled back to the committed mode.
  if (id_ex_.valid) {
    if (id_ex_.has_transition()) {
      --inflight_mode_ops_;
    }
    id_ex_.valid = false;
  }
  tracer_.Emit((cause & kInterruptCauseFlag) != 0 ? TraceEventKind::kInterrupt
                                                  : TraceEventKind::kTrap,
               epc, cause, entry);
  metal_.SetTrapState(cause, epc, badvaddr, instr);
  metal_.WriteMreg(kMetalLinkRegister, m31);
  arch_metal_ = true;
  frontend_metal_ = true;
  last_metal_entry_ = static_cast<uint8_t>(entry);
  RedirectFetch(handler);
}

void Core::RaiseMachineCheck(McheckKind kind, uint32_t info, uint32_t epc) {
  ++stats_.machine_checks;
  tracer_.Emit(TraceEventKind::kMachineCheck, epc, static_cast<uint32_t>(kind), info,
               arch_metal_);
  std::string detail;
  switch (kind) {
    case McheckKind::kMramCodeParity:
      detail = StrFormat("MRAM code parity error at 0x%08x", info);
      break;
    case McheckKind::kMramDataParity:
      detail = StrFormat("MRAM data parity error at offset 0x%08x", info);
      break;
    case McheckKind::kWatchdog:
      detail = StrFormat("mroutine entry %u exceeded the %llu-cycle Metal-mode watchdog budget",
                         info,
                         static_cast<unsigned long long>(config_.metal_watchdog_cycles));
      break;
    case McheckKind::kDoubleTrap:
      detail = StrFormat("trap (cause 0x%08x) raised by a Metal-mode instruction", info);
      break;
    default:
      detail = "unknown machine-check kind";
      break;
  }
  // Record the check in the MCHECK* registers before deciding deliverability,
  // so a crash dump of an undelegated (fatal) check still names it. m31 is
  // left untouched: it still holds the aborted mroutine's resume address, so
  // the recovery mroutine's mexit returns to the interrupted normal-mode
  // program. A copy lands in MCHECKM31 (together with MEPC) so the handler
  // can instead retry the faulting Metal-mode instruction by rewriting m31
  // (mexit resumes into Metal mode for MRAM addresses).
  metal_.SetMachineCheckState(kind, info, metal_.ReadMreg(kMetalLinkRegister));
  metal_.SetTrapState(static_cast<uint32_t>(ExcCause::kMachineCheck), epc, info, 0);
  if (in_machine_check_) {
    // A machine check while one is being handled cannot recurse into the
    // (evidently broken) recovery mroutine.
    Fatal(StrFormat("double machine check (%s) at pc=0x%08x: %s", McheckKindName(kind), epc,
                    detail.c_str()));
    return;
  }
  const uint32_t entry = metal_.DelegatedEntry(ExcCause::kMachineCheck);
  if (entry >= kMaxMroutines || metal_.EntryAddress(entry) == 0) {
    Fatal(StrFormat("undelegated machine check (%s) at pc=0x%08x: %s", McheckKindName(kind),
                    epc, detail.c_str()));
    return;
  }
  // Squash younger in-flight work, rolling back speculative mode transitions.
  if (id_ex_.valid) {
    if (id_ex_.has_transition()) {
      --inflight_mode_ops_;
    }
    id_ex_.valid = false;
  }
  in_machine_check_ = true;
  arch_metal_ = true;
  frontend_metal_ = true;
  last_metal_entry_ = static_cast<uint8_t>(entry);
  RedirectFetch(metal_.EntryAddress(entry));
}

void Core::TakeException(ExcCause cause, uint32_t epc, uint32_t badvaddr, uint32_t instr,
                         uint32_t m31, bool faulting_op_is_metal) {
  ++stats_.exceptions;
  const uint32_t entry = metal_.DelegatedEntry(cause);
  TakeTrapToEntry(entry, static_cast<uint32_t>(cause), epc, badvaddr, instr, m31,
                  faulting_op_is_metal);
}

// ---------------------------------------------------------------------------
// MEM stage
// ---------------------------------------------------------------------------

void Core::StageMem() {
  if (!ex_mem_.valid) {
    return;
  }
  if (ex_mem_.wait > 0) {
    --ex_mem_.wait;
  }
  if (ex_mem_.wait > 0) {
    return;
  }
  const MemOp op = ex_mem_;
  ex_mem_.valid = false;

  bool ok = true;
  uint32_t loaded = 0;
  switch (op.target) {
    case MemOp::Target::kMramData: {
      if (op.is_store) {
        ok = mram_.WriteData32(op.paddr, op.store_value);
      } else {
        const auto value = mram_.ReadData32(op.paddr);
        ok = value.has_value();
        loaded = value.value_or(0);
        if (ok && mram_.DataParityError(op.paddr)) {
          // The corrupted word never reaches the register file.
          RaiseMachineCheck(McheckKind::kMramDataParity, op.paddr, op.pc);
          return;
        }
      }
      break;
    }
    case MemOp::Target::kMmio: {
      // The device must see this cycle's tick before the access, and the
      // access may move its next event.
      CatchUpDevices();
      if (op.is_store) {
        ok = bus_.Write32(op.paddr, op.store_value);
      } else {
        const auto value = bus_.Read32(op.paddr);
        ok = value.has_value();
        loaded = value.value_or(0);
      }
      if (device_horizon_ != 0) {
        device_horizon_ = bus_.NextDeviceEventCycle(cycle_);
      }
      break;
    }
    case MemOp::Target::kDram: {
      if (op.is_store) {
        ok = DramStore(bus_, op.kind, op.paddr, op.store_value);
      } else {
        const auto value = DramLoad(bus_, op.kind, op.paddr);
        ok = value.has_value();
        loaded = value.value_or(0);
      }
      break;
    }
  }
  if (!ok) {
    TakeException(ExcCause::kBusError, op.pc, op.vaddr, 0, op.pc, op.metal);
    return;
  }
  // One-shot bus-response corruption (fault injection): the glitch is silent —
  // there is no parity on the system bus, so the bad value simply lands in rd.
  if (bus_fault_armed_ && !op.is_store) {
    bus_fault_armed_ = false;
    loaded = (loaded & bus_fault_and_) ^ bus_fault_xor_;
  }
  if (!op.is_store) {
    WriteReg(op.rd, loaded);
  }
  Retire(op.pc, op.raw, op.metal);
}

// ---------------------------------------------------------------------------
// EX stage
// ---------------------------------------------------------------------------

uint32_t Core::DataAccessLatency(uint32_t paddr, bool metal_op) {
  if (paddr >= kMmioBase) {
    return config_.mmio_latency;
  }
  if (metal_op && config_.mroutine_storage == MroutineStorage::kDramUncached) {
    return config_.dram_latency;
  }
  return dcache_.Access(paddr);
}

bool Core::StartMemOp(const Op& op) {
  MemOp mem;
  mem.valid = true;
  mem.pc = op.pc;
  mem.kind = op.d.kind;
  mem.raw = op.d.raw;
  mem.metal = op.metal;
  mem.rd = op.d.rd;
  const InstrInfo& info = op.d.info();
  mem.is_store = info.is_store;
  const uint32_t rs1 = ReadReg(op.d.rs1);
  mem.store_value = ReadReg(op.d.rs2);
  const uint32_t addr = rs1 + static_cast<uint32_t>(op.d.imm);
  mem.vaddr = addr;

  // MRAM data segment accesses (mld/mst): `addr` is a byte offset.
  if (op.d.kind == InstrKind::kMld || op.d.kind == InstrKind::kMst) {
    if ((addr & 3) != 0) {
      TakeException(mem.is_store ? ExcCause::kMisalignedStore : ExcCause::kMisalignedLoad,
                    op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    if (addr > kMramDataSize - 4) {  // addr + 4 would wrap for addr >= 0xFFFFFFFC
      TakeException(ExcCause::kMramOutOfBounds, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    if (config_.mroutine_storage == MroutineStorage::kMram) {
      mem.target = MemOp::Target::kMramData;
      mem.paddr = addr;
      mem.wait = config_.mram_latency;
    } else {
      // DRAM-resident handler data area (trap / PALcode configurations).
      mem.target = MemOp::Target::kDram;
      mem.paddr = config_.dram_handler_data_base + addr;
      mem.wait = config_.mroutine_storage == MroutineStorage::kDramUncached
                     ? config_.dram_latency
                     : dcache_.Access(mem.paddr);
    }
    ex_mem_ = mem;
    if (!mem.is_store) {
      ex_load_this_cycle_ = true;
      ex_load_rd_ = mem.rd;
    }
    return true;
  }

  // Alignment by access size.
  const uint32_t size = info.mem_size;
  if ((addr & (size - 1)) != 0) {
    TakeException(mem.is_store ? ExcCause::kMisalignedStore : ExcCause::kMisalignedLoad, op.pc,
                  addr, op.d.raw, op.pc, op.metal);
    return false;
  }

  // Translation: normal-mode accesses only. Metal mode runs with bare
  // physical addressing (paper §2.3, Access to Physical Memory); plw/psw are
  // physical by definition.
  uint32_t paddr = addr;
  const bool physical = op.metal || op.d.kind == InstrKind::kPlw ||
                        op.d.kind == InstrKind::kPsw || !metal_.paging_enabled();
  if (!physical) {
    const TranslateResult tr =
        mmu_.Translate(addr, mem.is_store ? AccessType::kStore : AccessType::kLoad,
                       metal_.asid(), metal_.keyperm());
    if (!tr.ok) {
      TakeException(tr.fault, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    paddr = tr.paddr;
  }
  mem.paddr = paddr;
  if (paddr >= kMmioBase) {
    if (size != 4) {
      TakeException(ExcCause::kBusError, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    mem.target = MemOp::Target::kMmio;
  } else {
    mem.target = MemOp::Target::kDram;
  }
  mem.wait = DataAccessLatency(paddr, op.metal);
  ex_mem_ = mem;
  if (!mem.is_store) {
    ex_load_this_cycle_ = true;
    ex_load_rd_ = mem.rd;
  }
  return true;
}

void Core::StageEx() {
  if (!id_ex_.valid || ex_mem_.valid) {
    return;  // nothing to do, or MEM occupied (structural stall)
  }
  Op op = id_ex_;
  id_ex_.valid = false;

  // Commit the Metal mode transition chain attached in the decode stage.
  // The committed mode after the chain is the mode this (final replacement)
  // instruction decodes in; m31 carries the link of the last menter. Exits
  // apply any pending intercepted-rd writeback (mopw).
  if (op.has_transition()) {
    --inflight_mode_ops_;
    stats_.menters += op.enters;
    stats_.mexits += op.exits;
    if (op.exits != 0) {
      // A committed mexit ends machine-check handling (recovery succeeded).
      in_machine_check_ = false;
    }
    for (uint8_t i = 0; i < op.chain_len; ++i) {
      if (op.chain[i].is_enter) {
        last_metal_entry_ = op.chain[i].entry;
      }
    }
    if (tracer_.enabled()) {
      // Replay the folded transition chain in committed order. Enter and exit
      // land on the same cycle, which is exactly the zero-bubble contract.
      for (uint8_t i = 0; i < op.chain_len; ++i) {
        const ChainStep& step = op.chain[i];
        if (step.is_enter) {
          tracer_.Emit(TraceEventKind::kMenter, step.pc, step.entry, step.target);
        } else {
          tracer_.Emit(TraceEventKind::kMexit, step.pc, step.target,
                       Mram::InCodeRange(step.target) ? 1u : 0u, /*metal=*/true);
        }
      }
      if (op.enters + op.exits >= 2) {
        tracer_.Emit(TraceEventKind::kChainFold, op.pc, op.enters, op.exits, op.metal);
      }
    }
    for (int i = 0; i < op.exits; ++i) {
      uint8_t rd = 0;
      uint32_t value = 0;
      if (metal_.TakePendingWriteback(&rd, &value)) {
        WriteReg(rd, value);
      }
    }
    if (op.enters != 0) {
      metal_.WriteMreg(kMetalLinkRegister, op.link);
      metal_.SetTrapState(0, op.pc, 0, op.d.raw);
    }
    arch_metal_ = op.metal;
  }

  // Faults detected at fetch time are delivered here, in program order.
  if (op.fetch_fault != ExcCause::kNone) {
    if (op.fetch_fault == ExcCause::kMachineCheck) {
      // MRAM fetch parity mismatch (AccessFetch): deliverable from Metal mode.
      RaiseMachineCheck(McheckKind::kMramCodeParity, op.fetch_fault_addr, op.pc);
    } else {
      TakeException(op.fetch_fault, op.pc, op.fetch_fault_addr, 0, op.pc, op.metal);
    }
    return;
  }

  // Instruction interception (paper §2.3): latch operands and vector into the
  // configured mroutine. m31 = pc + 4 (skip-and-emulate semantics; the
  // handler can rewrite m31 with MEPC to retry instead).
  if (op.intercepted) {
    OperandLatch latch;
    latch.rs1_value = ReadReg(op.d.rs1);
    latch.rs2_value = ReadReg(op.d.rs2);
    latch.imm = op.d.imm;
    latch.rd_index = op.d.rd;
    latch.rs1_index = op.d.rs1;
    latch.rs2_index = op.d.rs2;
    latch.raw = op.d.raw;
    metal_.LatchOperands(latch);
    ++stats_.intercepts;
    TakeTrapToEntry(op.intercept_entry, static_cast<uint32_t>(ExcCause::kIntercept), op.pc, 0,
                    op.d.raw, op.pc + 4, op.metal);
    return;
  }

  const InstrInfo& info = op.d.info();
  if (info.kind == InstrKind::kIllegal) {
    TakeException(ExcCause::kIllegalInstruction, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }
  if (info.metal_only && !op.metal) {
    TakeException(ExcCause::kPrivilegeViolation, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }
  if (op.d.kind == InstrKind::kMenter && op.metal) {
    // Nested menter is not architected (paper §3.5 discusses layering as
    // future work; src/ext/nested.cc builds it in software).
    TakeException(ExcCause::kPrivilegeViolation, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }

  if (info.is_load || info.is_store) {
    StartMemOp(op);  // retires at MEM completion
    return;
  }
  ExecuteAluOp(op);
}

void Core::ExecuteAluOp(Op& op) {
  using K = InstrKind;
  const uint32_t pc = op.pc;
  const uint32_t a = ReadReg(op.d.rs1);
  const uint32_t b = ReadReg(op.d.rs2);
  const uint32_t imm = static_cast<uint32_t>(op.d.imm);
  const InstrInfo& info = op.d.info();
  bool retire = true;

  auto branch_to = [&](uint32_t target) {
    ++stats_.control_flushes;
    RedirectFetch(target);
  };

  switch (op.d.kind) {
    case K::kFence:
      break;  // no-op: the model is sequentially consistent
    case K::kEcall:
      TakeException(ExcCause::kEcall, pc, 0, op.d.raw, pc + 4, op.metal);
      retire = false;
      break;
    case K::kEbreak:
      TakeException(ExcCause::kBreakpoint, pc, 0, op.d.raw, pc + 4, op.metal);
      retire = false;
      break;
    case K::kHalt:
      halted_ = true;
      exit_code_ = a;
      break;
    case K::kMenter: {
      // Slow path: fast_transition disabled, DRAM-resident mroutines, or an
      // unconfigured entry (which faults).
      const uint32_t handler = metal_.EntryAddress(static_cast<uint32_t>(op.d.imm) & 63);
      if (handler == 0) {
        TakeException(ExcCause::kIllegalInstruction, pc, 0, op.d.raw, pc + 4, op.metal);
        retire = false;
        break;
      }
      tracer_.Emit(TraceEventKind::kMenter, pc, static_cast<uint32_t>(op.d.imm) & 63,
                   handler);
      metal_.SetTrapState(0, pc, 0, op.d.raw);
      metal_.WriteMreg(kMetalLinkRegister, pc + 4);
      arch_metal_ = true;
      frontend_metal_ = true;
      last_metal_entry_ = static_cast<uint8_t>(op.d.imm & 63);
      ++stats_.menters;
      ++stats_.control_flushes;
      RedirectFetch(handler);
      break;
    }
    case K::kMexit: {
      const uint32_t resume = metal_.ReadMreg(kMetalLinkRegister);
      // A machine-check recovery mroutine may point m31 at MEPC to retry the
      // aborted mroutine: an MRAM-resident resume address keeps Metal
      // privileges, and the hardware restores m31 from MCHECKM31 so the
      // retried mroutine's own mexit still returns to the interrupted
      // program (docs/robustness.md).
      const bool resume_metal = Mram::InCodeRange(resume);
      // arg1 bit 0: Metal mode retained across the exit; bit 1: this exit
      // ends a machine-check recovery with a retained-mode resume — the
      // scrub-and-retry path, which re-enters the aborted mroutine without a
      // fresh delivery event (span tracing keys the retry span off this).
      const uint32_t exit_flags = (resume_metal ? 1u : 0u) |
                                  ((in_machine_check_ && resume_metal) ? 2u : 0u);
      tracer_.Emit(TraceEventKind::kMexit, pc, resume, exit_flags, /*metal=*/true);
      arch_metal_ = resume_metal;
      frontend_metal_ = resume_metal;
      if (resume_metal) {
        metal_.WriteMreg(kMetalLinkRegister,
                         metal_.ReadCreg(kCrMcheckM31, cycle_, stats_.instret,
                                         intc_.pending()));
      }
      in_machine_check_ = false;
      ++stats_.mexits;
      uint8_t rd = 0;
      uint32_t value = 0;
      if (metal_.TakePendingWriteback(&rd, &value)) {
        WriteReg(rd, value);
      }
      ++stats_.control_flushes;
      RedirectFetch(resume);
      break;
    }
    case K::kRmr:
    case K::kWmr:
    case K::kRcr:
    case K::kWcr:
    case K::kTlbwr:
    case K::kTlbinv:
    case K::kTlbflush:
    case K::kTlbrd:
    case K::kMintset:
    case K::kMopr:
    case K::kMopw:
      ExecuteMetalOp(op.d, a, b);
      break;
    default:
      // The RV32IM kinds: isa/semantics.h, shared with the trace executor.
      if (info.is_branch) {
        if (BranchTaken(op.d.kind, a, b)) {
          branch_to(JumpTarget(op.d.kind, a, imm, pc));
        }
      } else if (info.writes_rd) {
        WriteReg(op.d.rd, AluResult(op.d.kind, a, b, imm, pc));
        if (info.is_jump) {
          branch_to(JumpTarget(op.d.kind, a, imm, pc));
        }
      } else {
        TakeException(ExcCause::kIllegalInstruction, pc, 0, op.d.raw, pc + 4, op.metal);
        retire = false;
      }
      break;
  }

  if (retire) {
    Retire(op.pc, op.d.raw, op.metal);
  }
}

void Core::ExecuteMetalOp(const Decoded& d, uint32_t a, uint32_t b) {
  using K = InstrKind;
  switch (d.kind) {
    case K::kRmr:
      WriteReg(d.rd, metal_.ReadMreg(static_cast<uint8_t>(d.imm & 31)));
      break;
    case K::kWmr:
      metal_.WriteMreg(static_cast<uint8_t>(d.imm & 31), a);
      break;
    case K::kRcr:
      WriteReg(d.rd, metal_.ReadCreg(static_cast<uint32_t>(d.imm) & 0xFF, cycle_,
                                     stats_.instret, intc_.pending()));
      break;
    case K::kWcr: {
      const uint32_t creg = static_cast<uint32_t>(d.imm) & 0xFF;
      if (creg == kCrMramScrub) {
        // Write-only trigger: restore parity-failing MRAM words from the
        // shadow copy (the recovery mroutine's repair step).
        mram_.Scrub();
      } else {
        metal_.WriteCreg(creg, a);
      }
      break;
    }
    case K::kTlbwr:
      mmu_.tlb().Insert(a, b, metal_.asid());
      break;
    case K::kTlbinv:
      mmu_.tlb().InvalidateVaddr(a, metal_.asid());
      break;
    case K::kTlbflush:
      if (d.rs1 == 0) {
        mmu_.tlb().FlushAll();
      } else {
        mmu_.tlb().FlushAsid(static_cast<uint16_t>(a));
      }
      break;
    case K::kTlbrd:
      WriteReg(d.rd, mmu_.tlb().Probe(a, metal_.asid()));
      break;
    case K::kMintset:
      metal_.ApplyMintset(a, b);
      break;
    case K::kMopr: {
      const OperandLatch& latch = metal_.operands();
      uint32_t value = 0;
      switch (d.rs2) {
        case kMoprRs1Value:
          value = latch.rs1_value;
          break;
        case kMoprRs2Value:
          value = latch.rs2_value;
          break;
        case kMoprImm:
          value = static_cast<uint32_t>(latch.imm);
          break;
        case kMoprRdIndex:
          value = latch.rd_index;
          break;
        case kMoprRaw:
          value = latch.raw;
          break;
        case kMoprRs1Index:
          value = latch.rs1_index;
          break;
        case kMoprRs2Index:
          value = latch.rs2_index;
          break;
        default:
          break;
      }
      WriteReg(d.rd, value);
      break;
    }
    case K::kMopw:
      metal_.SetPendingWriteback(a);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// ID stage
// ---------------------------------------------------------------------------

bool Core::InterruptDeliverable() const {
  if (arch_metal_ || frontend_metal_ || inflight_mode_ops_ != 0) {
    return false;  // mroutines are non-interruptible
  }
  return (intc_.pending() & metal_.ienable()) != 0;
}

void Core::IdReplacementChain(Op& op) {
  if (!config_.fast_transition || config_.mroutine_storage != MroutineStorage::kMram) {
    return;
  }
  for (int guard = 0; guard < 4; ++guard) {
    if (op.d.kind == InstrKind::kMenter && !op.metal) {
      const uint32_t handler = metal_.EntryAddress(static_cast<uint32_t>(op.d.imm) & 63);
      if (!Mram::InCodeRange(handler) || (handler & 3) != 0) {
        return;  // unconfigured or misaligned entry: let EX raise the fault
      }
      // Combinational MRAM read (same contract as AccessFetch). A word that
      // fails decode still reaches EX and traps identically to the slow path.
      const Mram::CodeFetch fetch = mram_.FetchCodeWord(handler);
      if (!fetch.parity_ok) {
        // Corrupted first instruction: fall back to the EX slow path, whose
        // redirected fetch re-detects the mismatch and machine-checks.
        return;
      }
      const Decoded d = DecodeMemoized(fetch.word);
      // Replace menter with the first mroutine instruction (paper §2.2).
      if (!op.has_transition()) {
        ++inflight_mode_ops_;
      }
      if (op.chain_len < op.chain.size()) {
        op.chain[op.chain_len++] =
            ChainStep{true, static_cast<uint8_t>(op.d.imm & 63), op.pc, handler};
      }
      ++op.enters;
      op.link = op.pc + 4;
      op.pc = handler;
      op.metal = true;
      op.d = d;
      op.intercepted = false;
      frontend_metal_ = true;
      ++stats_.fast_replacements;
      // Steer fetch to the second mroutine instruction, without counting a
      // control flush (this is the zero-bubble path).
      ResetFetch(handler + 4);
      continue;
    }
    if (op.d.kind == InstrKind::kMexit && op.metal) {
      // Within a chain, the effective m31 is the link of the pending menter.
      const uint32_t resume =
          op.enters != 0 ? op.link : metal_.ReadMreg(kMetalLinkRegister);
      // The replacement needs the resume instruction immediately; that only
      // works when it is resident (I-cache hit on a translated address).
      // Otherwise fall back to the EX slow path (plain redirect) and let the
      // normal fetch machinery (and its faults) take over.
      uint32_t paddr = resume;
      if ((resume & 3) != 0 || Mram::InCodeRange(resume)) {
        return;
      }
      if (metal_.paging_enabled()) {
        const TranslateResult tr =
            mmu_.Translate(resume, AccessType::kFetch, metal_.asid(), metal_.keyperm());
        if (!tr.ok) {
          return;
        }
        paddr = tr.paddr;
      }
      if (paddr >= kMmioBase || !icache_.Probe(paddr)) {
        return;
      }
      const auto word = bus_.dram().Read32(paddr);
      if (!word) {
        return;
      }
      const Decoded d = DecodeMemoized(*word);
      icache_.Access(paddr);  // count the hit
      if (!op.has_transition()) {
        ++inflight_mode_ops_;
      }
      if (op.chain_len < op.chain.size()) {
        op.chain[op.chain_len++] = ChainStep{false, 0, op.pc, resume};
      }
      ++op.exits;
      op.pc = resume;
      op.metal = false;
      op.d = d;
      frontend_metal_ = false;
      ++stats_.fast_replacements;
      ResetFetch(resume + 4);
      // The resumed instruction executes in normal mode: interception applies.
      if (metal_.AnyInterceptEnabled()) {
        if (const InterceptSlot* slot = metal_.MatchIntercept(op.d.raw)) {
          op.intercepted = true;
          op.intercept_entry = slot->entry;
        }
      }
      continue;
    }
    return;
  }
}

void Core::StageId() {
  if (redirect_this_cycle_ || !if_id_.valid || id_ex_.valid) {
    return;
  }
  Op op;
  op.valid = true;
  op.pc = if_id_.pc;
  op.metal = if_id_.metal;
  op.fetch_fault = if_id_.fault;
  op.fetch_fault_addr = if_id_.fault_addr;

  if (op.fetch_fault == ExcCause::kNone) {
    op.d = if_id_.d;  // decoded at fetch (AccessFetch)

    // Load-use hazard: the load is in EX this cycle; stall one cycle.
    if (ex_load_this_cycle_ && InstrReadsGpr(op.d, ex_load_rd_)) {
      ++stats_.load_use_stalls;
      tracer_.Emit(TraceEventKind::kStall, op.pc, /*arg0=*/0, 0, op.metal);
      return;  // keep if_id_
    }

    // Interrupt delivery at an instruction boundary (normal mode only).
    if (InterruptDeliverable()) {
      const uint32_t line = LowestSetBit(intc_.pending() & metal_.ienable());
      ++stats_.interrupts;
      TakeTrapToEntry(metal_.IrqEntry(), InterruptCause(line), op.pc, 0, 0, op.pc,
                      /*faulting_op_is_metal=*/false);
      return;  // frontend flushed; the interrupted instruction re-fetches
    }

    // Instruction interception (normal mode only).
    if (!op.metal && metal_.AnyInterceptEnabled()) {
      if (const InterceptSlot* slot = metal_.MatchIntercept(op.d.raw)) {
        op.intercepted = true;
        op.intercept_entry = slot->entry;
      }
    }

    // Only menter/mexit start a replacement chain; skip the call otherwise.
    if (op.d.kind == InstrKind::kMenter || op.d.kind == InstrKind::kMexit) {
      IdReplacementChain(op);
    }
  }

  if_id_.valid = false;
  id_ex_ = op;
  id_ex_.valid = true;
}

// ---------------------------------------------------------------------------
// IF stage
// ---------------------------------------------------------------------------

Core::FetchResult Core::AccessFetch(uint32_t pc, bool metal_frontend, bool timing) {
  FetchResult r;
  if ((pc & 3) != 0) {
    r.fault = ExcCause::kMisalignedFetch;
    r.fault_addr = pc;
    return r;
  }
  if (Mram::InCodeRange(pc)) {
    if (!metal_frontend) {
      r.fault = ExcCause::kPrivilegeViolation;
      r.fault_addr = pc;
      return r;
    }
    const Mram::CodeFetch fetch = mram_.FetchCodeWord(pc);
    if (!fetch.parity_ok) {
      // The word is untrustworthy; deliver a machine check instead of
      // decoding it (the EX stage maps this cause to kMramCodeParity).
      r.fault = ExcCause::kMachineCheck;
      r.fault_addr = pc;
      return r;
    }
    r.ok = true;
    r.raw = fetch.word;
    r.d = DecodeMemoized(fetch.word);
    r.latency = config_.mram_latency;
    return r;
  }
  uint32_t paddr = pc;
  if (!metal_frontend && metal_.paging_enabled()) {
    const TranslateResult tr =
        mmu_.Translate(pc, AccessType::kFetch, metal_.asid(), metal_.keyperm());
    if (!tr.ok) {
      r.fault = tr.fault;
      r.fault_addr = pc;
      return r;
    }
    paddr = tr.paddr;
  }
  if (paddr >= kMmioBase) {
    r.fault = ExcCause::kBusError;
    r.fault_addr = pc;
    return r;
  }
  const auto word = bus_.dram().Read32(paddr);
  if (!word) {
    r.fault = ExcCause::kBusError;
    r.fault_addr = pc;
    return r;
  }
  r.ok = true;
  r.raw = *word;
  r.d = DecodeMemoized(*word);
  if (metal_frontend && config_.mroutine_storage == MroutineStorage::kDramUncached) {
    // PALcode-style handler: fetched uncached from main memory.
    r.latency = config_.dram_latency;
  } else if (timing) {
    r.latency = icache_.Access(paddr);
  } else {
    r.latency = config_.cache_hit_latency;
  }
  return r;
}

void Core::StageIf() {
  if (redirect_this_cycle_) {
    return;  // fetch restarts at the redirect target next cycle
  }
  // Deliver a previously completed fetch.
  if (fetch_buffer_.valid) {
    if (if_id_.valid) {
      return;  // decode is stalled; hold
    }
    if_id_ = fetch_buffer_;
    fetch_buffer_.valid = false;
  }
  // Start a new fetch if the unit is idle and the skid buffer is free.
  if (!fetch_inflight_ && !fetch_buffer_.valid) {
    const FetchResult r = AccessFetch(fetch_pc_, frontend_metal_, /*timing=*/true);
    fetch_inflight_ = true;
    fetch_wait_ = r.ok ? r.latency : 1;
    fetch_buffer_.pc = fetch_pc_;
    fetch_buffer_.raw = r.raw;
    fetch_buffer_.d = r.d;
    fetch_buffer_.metal = frontend_metal_;
    fetch_buffer_.fault = r.fault;
    fetch_buffer_.fault_addr = r.fault_addr;
    fetch_buffer_.valid = false;  // becomes valid when the wait elapses
  }
  // Progress the in-flight fetch.
  if (fetch_inflight_) {
    if (fetch_wait_ > 0) {
      --fetch_wait_;
    }
    if (fetch_wait_ == 0) {
      fetch_inflight_ = false;
      fetch_buffer_.valid = true;
      fetch_pc_ += 4;
      // Same-cycle delivery when the decode slot is free (1-cycle fetch).
      if (!if_id_.valid) {
        if_id_ = fetch_buffer_;
        fetch_buffer_.valid = false;
      }
    }
  }
}

// --- checkpoint/restore ------------------------------------------------------
//
// The pipeline latches are serialized field by field; Decoded is rebuilt from
// the raw instruction word on restore (DecodeInstr is pure), so the format
// does not depend on the decoder's in-memory representation.

void Core::SaveState(SnapWriter& w, bool include_dram) const {
  for (uint32_t reg : regs_) {
    w.U32(reg);
  }
  w.U64(cycle_);

  // Fetch unit + IF/ID latch.
  w.U32(fetch_pc_);
  w.Bool(frontend_metal_);
  w.Bool(fetch_inflight_);
  w.U32(fetch_wait_);
  for (const FetchSlot* slot : {&fetch_buffer_, &if_id_}) {
    w.Bool(slot->valid);
    w.U32(slot->pc);
    w.U32(slot->raw);
    w.Bool(slot->metal);
    w.U32(static_cast<uint32_t>(slot->fault));
    w.U32(slot->fault_addr);
  }

  // ID/EX latch.
  w.Bool(id_ex_.valid);
  w.U32(id_ex_.pc);
  w.U32(id_ex_.d.raw);
  w.Bool(id_ex_.metal);
  w.U8(id_ex_.enters);
  w.U8(id_ex_.exits);
  w.U32(id_ex_.link);
  w.U8(id_ex_.chain_len);
  for (const ChainStep& step : id_ex_.chain) {
    w.Bool(step.is_enter);
    w.U8(step.entry);
    w.U32(step.pc);
    w.U32(step.target);
  }
  w.Bool(id_ex_.intercepted);
  w.U8(id_ex_.intercept_entry);
  w.U32(static_cast<uint32_t>(id_ex_.fetch_fault));
  w.U32(id_ex_.fetch_fault_addr);

  // EX/MEM latch.
  w.Bool(ex_mem_.valid);
  w.U32(ex_mem_.pc);
  w.U32(static_cast<uint32_t>(ex_mem_.kind));
  w.Bool(ex_mem_.metal);
  w.Bool(ex_mem_.is_store);
  w.U32(ex_mem_.vaddr);
  w.U32(ex_mem_.paddr);
  w.U32(ex_mem_.store_value);
  w.U32(ex_mem_.raw);
  w.U8(ex_mem_.rd);
  w.U32(ex_mem_.wait);
  w.U8(static_cast<uint8_t>(ex_mem_.target));

  // Mode / machine-check / hazard bookkeeping.
  w.Bool(arch_metal_);
  w.U32(static_cast<uint32_t>(inflight_mode_ops_));
  w.Bool(in_machine_check_);
  w.U64(metal_resident_cycles_);
  w.U8(last_metal_entry_);
  w.Bool(bus_fault_armed_);
  w.U32(bus_fault_and_);
  w.U32(bus_fault_xor_);
  w.Bool(ex_load_this_cycle_);
  w.U8(ex_load_rd_);
  w.Bool(redirect_this_cycle_);

  // Run outcome.
  w.Bool(halted_);
  w.U32(exit_code_);
  w.Bool(has_fatal_);
  w.U32(static_cast<uint32_t>(fatal_.code()));
  w.Str(fatal_.message());

  // Statistics.
  w.U64(stats_.cycles);
  w.U64(stats_.instret);
  w.U64(stats_.metal_instret);
  w.U64(stats_.metal_cycles);
  w.U64(stats_.menters);
  w.U64(stats_.mexits);
  w.U64(stats_.fast_replacements);
  w.U64(stats_.exceptions);
  w.U64(stats_.interrupts);
  w.U64(stats_.intercepts);
  w.U64(stats_.control_flushes);
  w.U64(stats_.load_use_stalls);
  w.U64(stats_.machine_checks);
  w.U64(stats_.watchdog_fires);

  // Components.
  metal_.SaveState(w);
  mram_.SaveState(w);
  mmu_.tlb().SaveState(w);
  icache_.SaveState(w);
  dcache_.SaveState(w);
  intc_.SaveState(w);
  timer_.SaveState(w);
  nic_.SaveState(w);
  console_.SaveState(w);

  w.Bool(include_dram);
  if (include_dram) {
    bus_.dram().SaveState(w);
  }
}

Status Core::RestoreState(SnapReader& r) {
  // Restore replaces DRAM and MRAM wholesale. The superblock cache is not
  // part of this stream (it is architecturally invisible, like the stepping
  // mode), so it starts cold: the restored MRAM generation could otherwise
  // alias a stale Metal trace.
  superblocks_.InvalidateAll();
  sb_resume_ = {};
  sb_refused_ = {};
  for (uint32_t& reg : regs_) {
    reg = r.U32();
  }
  cycle_ = r.U64();

  fetch_pc_ = r.U32();
  frontend_metal_ = r.Bool();
  fetch_inflight_ = r.Bool();
  fetch_wait_ = r.U32();
  for (FetchSlot* slot : {&fetch_buffer_, &if_id_}) {
    slot->valid = r.Bool();
    slot->pc = r.U32();
    slot->raw = r.U32();
    slot->metal = r.Bool();
    slot->fault = static_cast<ExcCause>(r.U32());
    slot->fault_addr = r.U32();
    // Rebuilt, not serialized: DecodeInstr is pure, and `d` is only consulted
    // for faultless slots, whose raw word is the real fetched word.
    slot->d = DecodeInstr(slot->raw);
  }

  id_ex_.valid = r.Bool();
  id_ex_.pc = r.U32();
  id_ex_.d = DecodeInstr(r.U32());
  id_ex_.metal = r.Bool();
  id_ex_.enters = r.U8();
  id_ex_.exits = r.U8();
  id_ex_.link = r.U32();
  id_ex_.chain_len = r.U8();
  for (ChainStep& step : id_ex_.chain) {
    step.is_enter = r.Bool();
    step.entry = r.U8();
    step.pc = r.U32();
    step.target = r.U32();
  }
  id_ex_.intercepted = r.Bool();
  id_ex_.intercept_entry = r.U8();
  id_ex_.fetch_fault = static_cast<ExcCause>(r.U32());
  id_ex_.fetch_fault_addr = r.U32();

  ex_mem_.valid = r.Bool();
  ex_mem_.pc = r.U32();
  ex_mem_.kind = static_cast<InstrKind>(r.U32());
  ex_mem_.metal = r.Bool();
  ex_mem_.is_store = r.Bool();
  ex_mem_.vaddr = r.U32();
  ex_mem_.paddr = r.U32();
  ex_mem_.store_value = r.U32();
  ex_mem_.raw = r.U32();
  ex_mem_.rd = r.U8();
  ex_mem_.wait = r.U32();
  ex_mem_.target = static_cast<MemOp::Target>(r.U8());

  arch_metal_ = r.Bool();
  inflight_mode_ops_ = static_cast<int>(r.U32());
  in_machine_check_ = r.Bool();
  metal_resident_cycles_ = r.U64();
  last_metal_entry_ = r.U8();
  bus_fault_armed_ = r.Bool();
  bus_fault_and_ = r.U32();
  bus_fault_xor_ = r.U32();
  ex_load_this_cycle_ = r.Bool();
  ex_load_rd_ = r.U8();
  redirect_this_cycle_ = r.Bool();

  halted_ = r.Bool();
  exit_code_ = r.U32();
  has_fatal_ = r.Bool();
  const uint32_t fatal_code = r.U32();
  const std::string fatal_message = r.Str();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core fatal status"));
  fatal_ = fatal_code == 0 ? Status::Ok()
                           : Status(static_cast<ErrorCode>(fatal_code), fatal_message);

  stats_.cycles = r.U64();
  stats_.instret = r.U64();
  stats_.metal_instret = r.U64();
  stats_.metal_cycles = r.U64();
  stats_.menters = r.U64();
  stats_.mexits = r.U64();
  stats_.fast_replacements = r.U64();
  stats_.exceptions = r.U64();
  stats_.interrupts = r.U64();
  stats_.intercepts = r.U64();
  stats_.control_flushes = r.U64();
  stats_.load_use_stalls = r.U64();
  stats_.machine_checks = r.U64();
  stats_.watchdog_fires = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core scalar state"));
  // The pipeline indexes with these unchecked (StageEx's chain loops,
  // GetInstrInfo), so an out-of-range value fails here instead.
  if (id_ex_.chain_len > id_ex_.chain.size()) {
    return InvalidArgument("snapshot ID/EX chain length is out of range");
  }
  if (ex_mem_.kind >= InstrKind::kCount) {
    return InvalidArgument("snapshot EX/MEM instruction kind is out of range");
  }

  MSIM_RETURN_IF_ERROR(metal_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(mram_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(mmu_.tlb().RestoreState(r));
  MSIM_RETURN_IF_ERROR(icache_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(dcache_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(intc_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(timer_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(nic_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(console_.RestoreState(r));
  // The restored devices are current at the restored cycle; their next
  // event is whatever the restored state says.
  owed_device_tick_ = 0;
  if (device_horizon_ != 0) {
    device_horizon_ = bus_.NextDeviceEventCycle(cycle_);
  }

  const bool has_dram = r.Bool();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core dram flag"));
  if (has_dram) {
    MSIM_RETURN_IF_ERROR(bus_.dram().RestoreState(r));
  }
  return Status::Ok();
}

uint64_t Core::StateDigest(bool include_dram) const {
  SnapWriter w(SnapWriter::Mode::kDigestOnly);
  SaveState(w, include_dram);
  return w.digest();
}

}  // namespace msim
