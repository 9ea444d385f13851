#include <set>

#include "trace/metrics.h"

#include "bench.h"

namespace perfbench {

void SimCounters::Add(const SimCounters& o) {
  cycles += o.cycles;
  instret += o.instret;
  metal_cycles += o.metal_cycles;
  menters += o.menters;
  intercepts += o.intercepts;
  superblock_executions += o.superblock_executions;
  superblock_instructions += o.superblock_instructions;
  mem_fast_hits += o.mem_fast_hits;
  mem_slow_exits += o.mem_slow_exits;
  icache_hits += o.icache_hits;
  icache_misses += o.icache_misses;
  dcache_hits += o.dcache_hits;
  dcache_misses += o.dcache_misses;
  tlb_hits += o.tlb_hits;
  tlb_misses += o.tlb_misses;
}

SimCounters ReadCounters(const msim::MetricRegistry& r) {
  SimCounters c;
  c.cycles = r.Value("core", "cycles");
  c.instret = r.Value("core", "instret");
  c.metal_cycles = r.Value("core", "metal_cycles");
  c.menters = r.Value("core", "menters");
  c.intercepts = r.Value("core", "intercepts");
  c.superblock_executions = r.Value("superblock", "executions");
  c.superblock_instructions = r.Value("superblock", "instructions");
  c.mem_fast_hits = r.Value("superblock", "mem_fast_hits");
  c.mem_slow_exits = r.Value("superblock", "mem_slow_exits");
  c.icache_hits = r.Value("icache", "hits");
  c.icache_misses = r.Value("icache", "misses");
  c.dcache_hits = r.Value("dcache", "hits");
  c.dcache_misses = r.Value("dcache", "misses");
  c.tlb_hits = r.Value("tlb", "hits");
  c.tlb_misses = r.Value("tlb", "misses");
  return c;
}

uint64_t RegistryDigest(const msim::MetricRegistry& registry) {
  // Only components that model the hardware. The predecode and superblock
  // counters describe which host execution tier ran, so a host-speed change
  // may legitimately move them.
  static const std::set<std::string> kModelComponents = {
      "core", "icache", "dcache", "tlb", "mram", "metal", "nic", "console"};
  uint64_t h = kFnvBasis;
  for (const msim::MetricRegistry::Metric& metric : registry.metrics()) {
    if (kModelComponents.count(metric.component) == 0) {
      continue;
    }
    for (const std::string* part : {&metric.component, &metric.name}) {
      for (const char c : *part) {
        FnvMix(h, static_cast<uint8_t>(c));
      }
    }
    FnvMix(h, metric.value());
  }
  return h;
}

}  // namespace perfbench
