#include "cpu/predecode.h"

namespace msim {

PredecodeCache::PredecodeCache(uint32_t entries) {
  if (entries == 0) {
    return;
  }
  // Round up to a power of two so Index() is a mask.
  uint32_t size = 1;
  while (size < entries) {
    size <<= 1;
  }
  slots_.resize(size);
  mask_ = size - 1;
}

void PredecodeCache::InvalidateAll() {
  if (slots_.empty()) {
    return;
  }
  for (Slot& slot : slots_) {
    slot.valid = false;
  }
  ++stats_.invalidations;
}

void PredecodeCache::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("predecode", "hits", &stats_.hits,
                    "fetches served from the decoded-instruction cache");
  registry.Register("predecode", "verified_hits", &stats_.verified_hits,
                    "stale-generation entries revalidated against the backing word");
  registry.Register("predecode", "misses", &stats_.misses, "fetches that ran the full decoder");
  registry.Register("predecode", "invalidations", &stats_.invalidations,
                    "whole-cache invalidations (program load, restore, icache upsets)");
}

}  // namespace msim
