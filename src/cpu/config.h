// Core configuration: timing parameters and Metal ablation switches.
#ifndef MSIM_CPU_CONFIG_H_
#define MSIM_CPU_CONFIG_H_

#include <cstdint>

namespace msim {

// Where mroutine code and data live. kMram is the paper's design; the DRAM
// placements are the comparison points (a conventional trap handler, and an
// Alpha-PALcode-style handler fetched uncached from main memory — the paper
// cites ~18 cycles for a no-op PALcode call).
enum class MroutineStorage {
  kMram,
  kDramCached,
  kDramUncached,
};

struct CoreConfig {
  uint32_t dram_size = 16 * 1024 * 1024;

  // Caches: direct-mapped; latencies in cycles.
  uint32_t icache_lines = 64;
  uint32_t icache_line_size = 64;
  uint32_t dcache_lines = 64;
  uint32_t dcache_line_size = 64;
  uint32_t cache_hit_latency = 1;
  uint32_t dram_latency = 20;   // cache miss / uncached access
  uint32_t mmio_latency = 5;
  uint32_t mram_latency = 1;    // collocated with the fetch unit (paper §2.2)

  uint32_t tlb_entries = 32;

  // Metal configuration.
  MroutineStorage mroutine_storage = MroutineStorage::kMram;
  // Decode-stage replacement of menter/mexit (paper §2.2). Disabled, the
  // transitions behave like jumps resolved in EX (ablation).
  bool fast_transition = true;

  // When mroutines live in DRAM, their code/data are placed here by the
  // loader (see MetalSystem). The bases are offset by half the cache index
  // range so small handlers do not systematically conflict with program
  // text in the direct-mapped caches.
  uint32_t dram_handler_code_base = 0x00E00800;
  uint32_t dram_handler_data_base = 0x00E80800;

  // Robustness machinery (docs/robustness.md).
  // MRAM parity: loader/mst writes maintain per-word parity; a fetch or mld
  // of a word whose parity mismatches (i.e. corrupted behind the write path)
  // raises a machine check instead of silently executing/returning it.
  bool mram_parity = true;
  // Metal-mode watchdog: a machine check fires when the core stays in Metal
  // mode for more than this many consecutive cycles (mroutines are
  // non-interruptible, so a looping mroutine would otherwise hang the
  // machine). 0 disables the watchdog.
  uint64_t metal_watchdog_cycles = 0;

  // Simulation-speed machinery (docs/performance.md). Neither knob is
  // architecturally visible: traced and per-cycle stepping produce
  // byte-identical machine state, enforced by `msim replay --b-no-fast-step`
  // and the mfuzz "faststep" oracle.
  //
  // Predecode cache entries (0 disables; rounded up to a power of two).
  // Host-tier only: never serialized and not part of the snapshot config
  // hash (snap/snapshot.h).
  uint32_t predecode_entries = 4096;
  // The one stepping knob. On, Core::Run steps DRAM code and MRAM-resident
  // mroutines through the superblock trace tier (cpu/superblock.h) and
  // everything else per cycle;
  // off, every cycle is a Core::StepCycle, the per-cycle reference. Not part
  // of the snapshot config hash: trace state is never serialized, so
  // snapshots stay portable across stepping modes.
  bool fast_step = true;

  // Safety net for runaway simulations in tests.
  uint64_t default_max_cycles = 50'000'000;

  bool operator==(const CoreConfig&) const = default;
};

}  // namespace msim

#endif  // MSIM_CPU_CONFIG_H_
