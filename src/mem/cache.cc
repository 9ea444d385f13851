#include "mem/cache.h"

#include <bit>

#include "snap/snapstream.h"
#include "support/bits.h"
#include "support/strings.h"

namespace msim {

Cache::Cache(uint32_t num_lines, uint32_t line_size, uint32_t hit_latency, uint32_t miss_latency)
    : num_lines_(num_lines),
      line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))),
      tag_shift_(line_shift_ + static_cast<uint32_t>(std::countr_zero(num_lines))),
      hit_latency_(hit_latency),
      miss_latency_(miss_latency),
      lines_(num_lines) {
  if (!IsPowerOfTwo(num_lines) || !IsPowerOfTwo(line_size)) {
    internal::ResultFatal(
        "cache geometry",
        StrFormat("%u lines of %u bytes; both must be non-zero powers of two", num_lines,
                  line_size));
  }
}

void Cache::RegisterMetrics(MetricRegistry& registry, const std::string& component) const {
  registry.Register(component, "hits", &stats_.hits, "accesses that hit a resident line");
  registry.Register(component, "misses", &stats_.misses, "accesses that filled a line");
}

bool Cache::CorruptLine(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
  Line& line = lines_[index % num_lines_];
  if (!line.valid) {
    return false;
  }
  line.tag = (line.tag & and_mask) ^ xor_mask;
  return true;
}

void Cache::InvalidateAll() {
  for (Line& line : lines_) {
    line.valid = false;
  }
}

void Cache::SaveState(SnapWriter& w) const {
  w.U32(num_lines_);
  for (const Line& line : lines_) {
    w.Bool(line.valid);
    w.U32(line.tag);
  }
  w.U64(stats_.hits);
  w.U64(stats_.misses);
}

Status Cache::RestoreState(SnapReader& r) {
  const uint32_t saved_lines = r.U32();
  MSIM_RETURN_IF_ERROR(r.ToStatus("cache header"));
  if (saved_lines != num_lines_) {
    return InvalidArgument("snapshot cache geometry differs from this configuration");
  }
  for (Line& line : lines_) {
    line.valid = r.Bool();
    line.tag = r.U32();
  }
  stats_.hits = r.U64();
  stats_.misses = r.U64();
  return r.ToStatus("cache lines");
}

}  // namespace msim
