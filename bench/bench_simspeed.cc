// Engineering benchmark: simulator throughput (google-benchmark).
//
// Not a paper experiment — this measures how many simulated instructions per
// wall-clock second the cycle-level model achieves, for the configurations
// the other benches use heavily.
//
// items_per_second is therefore simulated-instructions per wall second,
// computed from the measured RunResult::instret of every iteration — never
// from a hardcoded instruction count, which silently rots when a program or
// the pipeline model changes.
//
// The *StepCycle rows measure the same program with CoreConfig::fast_step
// off (per-cycle stepping); CI computes the fast-over-per-cycle speedup
// ratios from the JSON output and gates regressions against
// bench/baseline_simspeed.json.
//
// BM_FreshMachineCheckpoint is the odd one out: it measures whole machines
// per second, the per-machine fixed cost a fault-campaign trial pays. The
// BM_TlbLookup* rows time one layer alone: TLB lookups per second.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "bench/bench_util.h"
#include "cpu/core.h"
#include "cpu/creg.h"
#include "ext/cpt.h"
#include "ext/stm.h"
#include "metal/system.h"
#include "mmu/tlb.h"
#include "snap/snapshot.h"
#include "support/rng.h"

namespace msim {
namespace {

const char* kAluLoop = R"(
  _start:
    li t0, 100000
  loop:
    addi a0, a0, 1
    xor a1, a1, a0
    addi t0, t0, -1
    bnez t0, loop
    halt zero
)";

// Memory-bound rows: the superblock memory slots (docs/performance.md) keep
// these loops inside traces, so their throughput tracks the trace tier's
// dcache/TLB fast path rather than the ALU ceiling. CI gates the median
// pair ratio of BM_MemCopyLoop over its per-cycle twin
// (memloop_superblock_speedup).
const char* kMemCopyLoop = R"(
  _start:
    la t5, src
    la t6, dst
    li t0, 25000
  loop:
    lw a0, 0(t5)
    addi a0, a0, 1
    sw a0, 0(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  src:
    .word 7
  dst:
    .word 0
)";

const char* kStridedStoreLoop = R"(
  _start:
    la t6, buf
    li t0, 12500
  loop:
    sw t0, 0(t6)
    sh t0, 32(t6)
    sb t0, 64(t6)
    lbu a1, 64(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  buf:
    .space 128
)";

const char* kMixedAluMemLoop = R"(
  _start:
    la t6, buf
    li t0, 20000
  loop:
    addi a0, a0, 3
    xor a1, a1, a0
    lw a2, 0(t6)
    add a2, a2, a0
    sw a2, 4(t6)
    addi t0, t0, -1
    bnez t0, loop
    halt zero
    .data
  buf:
    .word 5
    .word 0
)";

const char* kMetalLoop = R"(
  _start:
    li t0, 50000
  loop:
    menter 1
    addi t0, t0, -1
    bnez t0, loop
    halt zero
)";

const char* kNoopMroutine = R"(
    .mentry 1, noop
  noop:
    mexit
)";

// The paper's STM (ext/stm.h): each transaction's loads and stores are
// intercepted into the tread/twrite mroutines, which log the read and write
// sets into MRAM data with mst. Nearly every cycle is Metal mode, which
// fast_step runs as Metal traces (docs/performance.md) and the *StepCycle
// twin per cycle; CI gates the ratio (intercept_faststep_speedup).
const char* kInterceptLoop = R"(
    .equ A, 0x00600000
  _start:
    li s0, 2000
  again:
    la a0, on_abort
    menter 24
    li t5, A
    lw t6, 0(t5)
    addi t6, t6, 1
    sw t6, 0(t5)
    lw t4, 4(t5)
    addi t4, t4, -1
    sw t4, 4(t5)
    menter 27
    addi s0, s0, -1
    bnez s0, again
    halt zero
  on_abort:
    j again
)";

// Boots the memory-copy loop, a plain program with no mroutines.
void BootMemCopyLoop(MetalSystem& system) {
  (void)system.LoadProgramSource(kMemCopyLoop);
  (void)system.Boot();
}

// Boots the STM intercept guest on a fresh system.
void BootInterceptLoop(MetalSystem& system) {
  (void)StmExtension::Install(system, /*clock_addr=*/0x00700000, /*vtbl_addr=*/0x00704000,
                              /*vtbl_words=*/1024);
  (void)system.LoadProgramSource(kInterceptLoop);
  (void)system.Boot();
}

// The paper's custom page tables (ext/cpt.h): a stride over 64 data pages,
// twice the TLB, so every access misses the TLB and the mcode radix walker
// refills it. Each walk's mexit resumes the faulting lw, which misses the
// dcache: the cycles after the splice run as adopted traces under fast_step
// and per cycle in the *StepCycle twin; CI gates the ratio
// (pagetable_faststep_speedup).
const char* kPageTableLoop = R"(
  _start:
    li s0, 20
  round:
    li s1, 64
    li s4, 0
  touch:
    slli t0, s4, 12
    li t1, 0x00800040
    add t0, t0, t1
    lw t2, 0(t0)
    addi t2, t2, 1
    sw t2, 0(t0)
    addi s4, s4, 7
    andi s4, s4, 63
    addi s1, s1, -1
    bnez s1, touch
    addi s0, s0, -1
    bnez s0, round
    halt zero
)";

// Boots the page-table guest on a fresh system: text and data pages mapped
// through the walker's tables, paging on.
void BootPageTableLoop(MetalSystem& system) {
  (void)CustomPageTable::Install(system, 0);
  (void)system.LoadProgramSource(kPageTableLoop);
  (void)system.Boot();
  Core& core = system.core();
  CustomPageTable cpt(core, 0x00400000, 0x00100000);
  const Result<uint32_t> root = cpt.CreateAddressSpace();
  if (!root.ok()) {
    return;
  }
  for (uint32_t page = 0; page < 16; ++page) {
    (void)cpt.Map(*root, page * 4096, page * 4096, kPteR | kPteW | kPteX);
  }
  for (uint32_t page = 0; page < 64; ++page) {
    const uint32_t addr = 0x00800000 + page * 4096;
    (void)cpt.Map(*root, addr, addr, kPteR | kPteW);
  }
  (void)cpt.Activate(*root);
  core.metal().WriteCreg(kCrPgEnable, 1);
}

// Runs `source` to completion once per iteration under `config`, reporting
// measured simulated instructions as items.
void RunLoopProgram(benchmark::State& state, const char* source,
                    const CoreConfig& config) {
  const auto program = Assemble(source);
  uint64_t total_instret = 0;
  for (auto _ : state) {
    Core core(config);
    (void)core.LoadProgram(*program);
    const RunResult result = core.Run(5'000'000);
    benchmark::DoNotOptimize(result.exit_code);
    total_instret += result.instret;
    state.counters["sim_instr"] = static_cast<double>(result.instret);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instret));
}

void BM_AluLoop(benchmark::State& state) {
  RunLoopProgram(state, kAluLoop, CoreConfig{});  // fast_step on: traced
}
BENCHMARK(BM_AluLoop)->Unit(benchmark::kMillisecond);

void BM_AluLoopStepCycle(benchmark::State& state) {
  CoreConfig config;
  config.fast_step = false;
  RunLoopProgram(state, kAluLoop, config);
}
BENCHMARK(BM_AluLoopStepCycle)->Unit(benchmark::kMillisecond);

void BM_MemCopyLoop(benchmark::State& state) {
  RunLoopProgram(state, kMemCopyLoop, CoreConfig{});
}
BENCHMARK(BM_MemCopyLoop)->Unit(benchmark::kMillisecond);

void BM_MemCopyLoopStepCycle(benchmark::State& state) {
  CoreConfig config;
  config.fast_step = false;
  RunLoopProgram(state, kMemCopyLoop, config);
}
BENCHMARK(BM_MemCopyLoopStepCycle)->Unit(benchmark::kMillisecond);

void BM_StridedStoreLoop(benchmark::State& state) {
  RunLoopProgram(state, kStridedStoreLoop, CoreConfig{});
}
BENCHMARK(BM_StridedStoreLoop)->Unit(benchmark::kMillisecond);

void BM_MixedAluMemLoop(benchmark::State& state) {
  RunLoopProgram(state, kMixedAluMemLoop, CoreConfig{});
}
BENCHMARK(BM_MixedAluMemLoop)->Unit(benchmark::kMillisecond);

void BM_MetalTransitionLoop(benchmark::State& state) {
  uint64_t total_instret = 0;
  for (auto _ : state) {
    MetalSystem system;
    system.AddMcode(kNoopMroutine);
    (void)system.LoadProgramSource(kMetalLoop);
    const RunResult result = system.Run(5'000'000);
    benchmark::DoNotOptimize(result.exit_code);
    total_instret += result.instret + system.core().stats().metal_instret;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instret));
}
BENCHMARK(BM_MetalTransitionLoop)->Unit(benchmark::kMillisecond);

void RunInterceptLoop(benchmark::State& state, const CoreConfig& config) {
  uint64_t total_instret = 0;
  for (auto _ : state) {
    MetalSystem system(config);
    BootInterceptLoop(system);
    const RunResult result = system.Run(5'000'000);
    benchmark::DoNotOptimize(result.exit_code);
    total_instret += result.instret;
    state.counters["sim_instr"] = static_cast<double>(result.instret);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instret));
}

void BM_InterceptLoop(benchmark::State& state) { RunInterceptLoop(state, CoreConfig{}); }
BENCHMARK(BM_InterceptLoop)->Unit(benchmark::kMillisecond);

void BM_InterceptLoopStepCycle(benchmark::State& state) {
  CoreConfig config;
  config.fast_step = false;
  RunInterceptLoop(state, config);
}
BENCHMARK(BM_InterceptLoopStepCycle)->Unit(benchmark::kMillisecond);

// tests/data/smoke.s, read once.
const std::string& SmokeSource() {
  static const std::string source = [] {
    std::ifstream in(MSIM_SMOKE_PROGRAM);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }();
  return source;
}

// One machine's fixed cost, the shape of a campaign trial: construct a
// MetalSystem, run smoke.s to halt, checkpoint it, restore the image into a
// fresh Core and take the full-DRAM state digest. False if any step fails.
bool FreshMachineCheckpoint() {
  MetalSystem system;
  if (!system.LoadProgramSource(SmokeSource()).ok()) {
    return false;
  }
  system.Run(1'000'000);
  if (!system.core().halted()) {
    return false;
  }
  const std::vector<uint8_t> image = SaveSnapshot(system.core());
  Core restored(system.core().config());
  if (!RestoreSnapshot(restored, image).ok()) {
    return false;
  }
  benchmark::DoNotOptimize(restored.StateDigest(true));
  return true;
}

void BM_FreshMachineCheckpoint(benchmark::State& state) {
  for (auto _ : state) {
    if (!FreshMachineCheckpoint()) {
      state.SkipWithError("smoke.s did not load, halt or restore");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreshMachineCheckpoint)->Unit(benchmark::kMicrosecond);

// The TLB probe behind every translated access, which the paper's custom
// page tables (§3.2) keep full: Lookup on a full 32-entry TLB, either of the
// resident pages (hits) or of the other 32 pages of the same 4 MiB region
// (misses). The vaddrs come from a run-time table in a scattered order, so
// no lookup folds away.
class TlbLookupLoop {
 public:
  static constexpr uint32_t kEntries = 32;

  explicit TlbLookupLoop(bool hit) : tlb_(kEntries) {
    for (uint32_t i = 0; i < kEntries; ++i) {
      const uint32_t page = (i * 7) % (2 * kEntries);  // 32 distinct of 64
      tlb_.Insert(Vaddr(page), MakePte(0x01000000 + i * kPageSize, kPteR | kPteW), kAsid);
    }
    Rng rng(hit ? 1 : 2);
    for (uint32_t& vaddr : vaddrs_) {
      const uint32_t i = static_cast<uint32_t>(rng.Below(kEntries));
      // Pages (i * 7) % 64 are resident; (i * 7 + 1) % 64 are not (7 is odd).
      vaddr = Vaddr((i * 7 + (hit ? 0 : 1)) % (2 * kEntries)) + 4 * static_cast<uint32_t>(i);
    }
  }

  // Runs `n` lookups; returns the XOR of the hit PTEs.
  uint32_t Run(uint64_t n) {
    uint32_t sum = 0;
    for (uint64_t k = 0; k < n; ++k) {
      const TlbEntry* entry = tlb_.Lookup(vaddrs_[k % vaddrs_.size()], kAsid);
      sum ^= entry != nullptr ? entry->pte : 0;
    }
    return sum;
  }

 private:
  static constexpr uint16_t kAsid = 1;
  static uint32_t Vaddr(uint32_t page) { return 0x00800000 + page * kPageSize; }

  Tlb tlb_;
  std::array<uint32_t, 1024> vaddrs_{};
};

void BM_TlbLookupHit(benchmark::State& state) {
  TlbLookupLoop loop(/*hit=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.Run(1024));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbLookupMiss(benchmark::State& state) {
  TlbLookupLoop loop(/*hit=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.Run(1024));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TlbLookupMiss);

void BM_Assembler(benchmark::State& state) {
  std::string source = "_start:\n";
  for (int i = 0; i < 1000; ++i) {
    source += "  addi a0, a0, 1\n";
  }
  source += "  halt a0\n";
  for (auto _ : state) {
    auto program = Assemble(source);
    benchmark::DoNotOptimize(program.ok());
  }
  state.SetItemsProcessed(state.iterations() * 1002);
}
BENCHMARK(BM_Assembler)->Unit(benchmark::kMillisecond);

}  // namespace

// Best-of-N wall-clock measurement of `source` under `config`, in simulated
// instructions per second. Self-contained (std::chrono, not the
// google-benchmark timer) so the BenchReport path works identically across
// library versions and never depends on benchmark CLI flags. With `observed`
// a SpanSink is attached (the msim --stats-json / --trace-json configuration),
// measuring the cost of full observability on the hot path.
double MeasureInstrPerSec(const char* source, const CoreConfig& config, int reps,
                          bool observed = false) {
  const auto program = Assemble(source);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Core core(config);
    SpanSink spans;
    if (observed) {
      core.SetTraceSink(&spans);
    }
    (void)core.LoadProgram(*program);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult result = core.Run(5'000'000);
    const auto t1 = std::chrono::steady_clock::now();
    if (observed) {
      spans.Finalize(core.cycle());
    }
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (seconds > 0.0) {
      const double rate = static_cast<double>(result.instret) / seconds;
      if (rate > best) {
        best = rate;
      }
    }
  }
  return best;
}

// Best-of-`reps` rate of FreshMachineCheckpoint, each rep a 0.2 s window.
// Zero if a machine fails.
double MeasureMachinesPerSec(int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t machines = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double seconds = 0.0;
    do {
      if (!FreshMachineCheckpoint()) {
        return 0.0;
      }
      ++machines;
      seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    } while (seconds < 0.2);
    best = std::max(best, static_cast<double>(machines) / seconds);
  }
  return best;
}

// Best-of-`reps` lookups per second of TlbLookupLoop, each rep 2M lookups.
double MeasureTlbLookupsPerSec(bool hit, int reps) {
  constexpr uint64_t kLookups = 2'000'000;
  TlbLookupLoop loop(hit);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(loop.Run(kLookups));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(kLookups) / seconds);
    }
  }
  return best;
}

// A guest (a MetalSystem booted by `boot`: a plain program, or one with
// mroutines and extensions) under fast_step on and off. Reps alternate the
// two configs, and the ratio is the median of the per-pair ratios: a shared
// host's speed swings within seconds, and a pair run back to back sees the
// same host.
struct FastStepRates {
  double fast = 0.0;     // best-of-N sim-instr/s, fast_step on
  double slow = 0.0;     // best-of-N sim-instr/s, fast_step off
  double speedup = 0.0;  // median over pairs of fast / slow
};

FastStepRates MeasureFastStepPairs(void (*boot)(MetalSystem&), int reps) {
  const auto rate = [boot](const CoreConfig& config) {
    MetalSystem system(config);
    boot(system);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult result = system.Run(5'000'000);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    return seconds > 0.0 ? static_cast<double>(result.instret) / seconds : 0.0;
  };
  CoreConfig fast_config;
  CoreConfig slow_config;
  slow_config.fast_step = false;
  FastStepRates rates;
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    const double fast = rate(fast_config);
    const double slow = rate(slow_config);
    rates.fast = std::max(rates.fast, fast);
    rates.slow = std::max(rates.slow, slow);
    if (slow > 0.0) {
      ratios.push_back(fast / slow);
    }
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    rates.speedup = ratios[ratios.size() / 2];
  }
  return rates;
}

// CI entry point: `bench_simspeed --json FILE` writes a BenchReport with the
// measured throughput of both stepping modes and their speedup ratio; the
// perf job gates it against bench/baseline_simspeed.json (>20% regression on
// any baseline field fails). Without --json/--stats-json the binary behaves
// as a plain google-benchmark main.
int RunBenchReport(int argc, char** argv) {
  BenchReport report("simspeed", "engineering throughput (not a paper experiment)");
  CoreConfig fast_config;  // defaults: fast_step on (traced)
  CoreConfig slow_config;
  slow_config.fast_step = false;
  const int kReps = 10;
  const double fast = MeasureInstrPerSec(kAluLoop, fast_config, kReps);
  const double slow = MeasureInstrPerSec(kAluLoop, slow_config, kReps);
  const double observed = MeasureInstrPerSec(kAluLoop, fast_config, kReps,
                                             /*observed=*/true);
  const FastStepRates memcopy = MeasureFastStepPairs(BootMemCopyLoop, 3 * kReps);
  const double strided = MeasureInstrPerSec(kStridedStoreLoop, fast_config, kReps);
  const double mixed = MeasureInstrPerSec(kMixedAluMemLoop, fast_config, kReps);
  const FastStepRates intercept = MeasureFastStepPairs(BootInterceptLoop, 3 * kReps);
  const FastStepRates pagetable = MeasureFastStepPairs(BootPageTableLoop, 3 * kReps);
  const double machines = MeasureMachinesPerSec(5);
  const double tlb_hits = MeasureTlbLookupsPerSec(/*hit=*/true, kReps);
  const double tlb_misses = MeasureTlbLookupsPerSec(/*hit=*/false, kReps);
  std::printf("BM_AluLoop                %12.0f sim-instr/s (traced)\n", fast);
  std::printf("BM_AluLoopStepCycle       %12.0f sim-instr/s (fast_step off)\n", slow);
  std::printf("BM_AluLoopObserved        %12.0f sim-instr/s (traced + span sink)\n",
              observed);
  std::printf("BM_MemCopyLoop            %12.0f sim-instr/s (lw/sw trace fast path)\n",
              memcopy.fast);
  std::printf("BM_MemCopyLoopStepCycle   %12.0f sim-instr/s (fast_step off)\n",
              memcopy.slow);
  std::printf("BM_StridedStoreLoop       %12.0f sim-instr/s (sw/sh/sb/lbu widths)\n",
              strided);
  std::printf("BM_MixedAluMemLoop        %12.0f sim-instr/s (interleaved ALU + mem)\n",
              mixed);
  std::printf("BM_InterceptLoop          %12.0f sim-instr/s (STM intercepts, Metal traces)\n",
              intercept.fast);
  std::printf("BM_InterceptLoopStepCycle %12.0f sim-instr/s (fast_step off)\n",
              intercept.slow);
  std::printf("BM_PageTableLoop          %12.0f sim-instr/s (walker refills, adopted traces)\n",
              pagetable.fast);
  std::printf("BM_PageTableLoopStepCycle %12.0f sim-instr/s (fast_step off)\n", pagetable.slow);
  std::printf("BM_FreshMachineCheckpoint %12.0f machines/s (build, run, save, restore, digest)\n",
              machines);
  std::printf("BM_TlbLookupHit           %12.0f lookups/s (full 32-entry TLB)\n", tlb_hits);
  std::printf("BM_TlbLookupMiss          %12.0f lookups/s (full 32-entry TLB)\n", tlb_misses);
  std::printf("speedup (fast/stepcycle)  %12.2fx\n", slow > 0.0 ? fast / slow : 0.0);
  std::printf("speedup (memloop traced/stepcycle) %6.2fx (median pair)\n", memcopy.speedup);
  std::printf("speedup (intercept fast/stepcycle) %6.2fx (median pair)\n", intercept.speedup);
  std::printf("speedup (pagetable fast/stepcycle) %6.2fx (median pair)\n", pagetable.speedup);
  report.AddRow("BM_AluLoop").Field("sim_instr_per_sec", fast);
  report.AddRow("BM_AluLoopStepCycle").Field("sim_instr_per_sec", slow);
  report.AddRow("BM_AluLoopObserved").Field("sim_instr_per_sec", observed);
  report.AddRow("BM_MemCopyLoop").Field("sim_instr_per_sec", memcopy.fast);
  report.AddRow("BM_MemCopyLoopStepCycle").Field("sim_instr_per_sec", memcopy.slow);
  report.AddRow("BM_StridedStoreLoop").Field("sim_instr_per_sec", strided);
  report.AddRow("BM_MixedAluMemLoop").Field("sim_instr_per_sec", mixed);
  report.AddRow("BM_InterceptLoop").Field("sim_instr_per_sec", intercept.fast);
  report.AddRow("BM_InterceptLoopStepCycle").Field("sim_instr_per_sec", intercept.slow);
  report.AddRow("BM_PageTableLoop").Field("sim_instr_per_sec", pagetable.fast);
  report.AddRow("BM_PageTableLoopStepCycle").Field("sim_instr_per_sec", pagetable.slow);
  report.AddRow("BM_FreshMachineCheckpoint").Field("machines_per_sec", machines);
  report.AddRow("BM_TlbLookupHit").Field("lookups_per_sec", tlb_hits);
  report.AddRow("BM_TlbLookupMiss").Field("lookups_per_sec", tlb_misses);
  report.AddRow("speedup").Field("fast_over_stepcycle", slow > 0.0 ? fast / slow : 0.0);
  report.AddRow("memloop_superblock_speedup").Field("traced_over_stepcycle", memcopy.speedup);
  report.AddRow("intercept_faststep_speedup").Field("fast_over_stepcycle", intercept.speedup);
  report.AddRow("pagetable_faststep_speedup").Field("fast_over_stepcycle", pagetable.speedup);
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}

}  // namespace msim

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 || std::strcmp(argv[i], "--stats-json") == 0) {
      return msim::RunBenchReport(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
