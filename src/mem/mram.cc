#include "mem/mram.h"

#include <algorithm>
#include <cstring>

#include "snap/snapstream.h"

namespace msim {

Mram::Mram()
    : code_(kMramCodeSize, 0),
      data_(kMramDataSize, 0),
      code_shadow_(kMramCodeSize, 0),
      data_shadow_(kMramDataSize, 0),
      code_parity_(kMramCodeSize / 4, 0),
      data_parity_(kMramDataSize / 4, 0) {}

std::optional<uint32_t> Mram::PeekCodeWord(uint32_t addr) const {
  if (!InCodeRange(addr) || (addr & 3) != 0) {
    return std::nullopt;
  }
  const uint32_t offset = addr - kMramCodeBase;
  const uint32_t word = LoadWord(code_, offset);
  if (parity_enabled_ && WordParity(word) != code_parity_[offset / 4]) {
    return std::nullopt;
  }
  return word;
}

bool Mram::WriteCodeWord(uint32_t offset, uint32_t word) {
  if (offset + 4 > code_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(code_, offset, word);
  StoreWord(code_shadow_, offset, word);
  code_parity_[offset / 4] = WordParity(word);
  ++generation_;
  return true;
}

bool Mram::DataParityError(uint32_t offset) const {
  if (!InDataRange(offset) || (offset & 3) != 0 || DataParityOk(offset)) {
    return false;
  }
  ++stats_.parity_errors;
  return true;
}

bool Mram::CorruptCodeWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask) {
  if (offset + 4 > code_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(code_, offset, (LoadWord(code_, offset) & and_mask) ^ xor_mask);
  ++stats_.words_corrupted;
  ++generation_;
  return true;
}

bool Mram::CorruptDataWord(uint32_t offset, uint32_t and_mask, uint32_t xor_mask) {
  if (offset + 4 > data_.size() || (offset & 3) != 0) {
    return false;
  }
  StoreWord(data_, offset, (LoadWord(data_, offset) & and_mask) ^ xor_mask);
  ++stats_.words_corrupted;
  return true;
}

uint32_t Mram::Scrub() {
  uint32_t restored = 0;
  const auto scrub_segment = [&](std::vector<uint8_t>& segment,
                                 const std::vector<uint8_t>& shadow,
                                 std::vector<uint8_t>& parity) {
    for (uint32_t offset = 0; offset + 4 <= segment.size(); offset += 4) {
      const uint32_t good = LoadWord(shadow, offset);
      if (LoadWord(segment, offset) != good) {
        StoreWord(segment, offset, good);
        ++restored;
      }
      parity[offset / 4] = WordParity(good);
    }
  };
  scrub_segment(code_, code_shadow_, code_parity_);
  scrub_segment(data_, data_shadow_, data_parity_);
  stats_.words_scrubbed += restored;
  ++generation_;
  return restored;
}

void Mram::Clear() {
  std::fill(code_.begin(), code_.end(), 0);
  std::fill(data_.begin(), data_.end(), 0);
  std::fill(code_shadow_.begin(), code_shadow_.end(), 0);
  std::fill(data_shadow_.begin(), data_shadow_.end(), 0);
  std::fill(code_parity_.begin(), code_parity_.end(), 0);
  std::fill(data_parity_.begin(), data_parity_.end(), 0);
  ++generation_;
}

void Mram::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("mram", "code_fetches", &stats_.code_fetches,
                    "instruction words read through the fetch port");
  registry.Register("mram", "data_reads", &stats_.data_reads, "mld accesses");
  registry.Register("mram", "data_writes", &stats_.data_writes, "mst accesses");
  registry.Register("mram", "parity_errors", &stats_.parity_errors,
                    "parity mismatches observed on fetch/mld");
  registry.Register("mram", "words_corrupted", &stats_.words_corrupted,
                    "words rewritten behind the write path (fault injection)");
  registry.Register("mram", "words_scrubbed", &stats_.words_scrubbed,
                    "words restored from the shadow copy by Scrub()");
}

void Mram::SaveState(SnapWriter& w) const {
  w.Bool(parity_enabled_);
  w.U64(generation_);
  w.Bytes(code_);
  w.Bytes(data_);
  w.Bytes(code_shadow_);
  w.Bytes(data_shadow_);
  w.Bytes(code_parity_);
  w.Bytes(data_parity_);
  w.U64(stats_.code_fetches);
  w.U64(stats_.data_reads);
  w.U64(stats_.data_writes);
  w.U64(stats_.parity_errors);
  w.U64(stats_.words_corrupted);
  w.U64(stats_.words_scrubbed);
}

Status Mram::RestoreState(SnapReader& r) {
  parity_enabled_ = r.Bool();
  generation_ = r.U64();
  std::vector<uint8_t> code = r.Bytes();
  std::vector<uint8_t> data = r.Bytes();
  std::vector<uint8_t> code_shadow = r.Bytes();
  std::vector<uint8_t> data_shadow = r.Bytes();
  std::vector<uint8_t> code_parity = r.Bytes();
  std::vector<uint8_t> data_parity = r.Bytes();
  MSIM_RETURN_IF_ERROR(r.ToStatus("mram segments"));
  if (code.size() != code_.size() || data.size() != data_.size() ||
      code_shadow.size() != code_shadow_.size() || data_shadow.size() != data_shadow_.size() ||
      code_parity.size() != code_parity_.size() || data_parity.size() != data_parity_.size()) {
    return InvalidArgument("snapshot MRAM geometry differs from this build");
  }
  code_ = std::move(code);
  data_ = std::move(data);
  code_shadow_ = std::move(code_shadow);
  data_shadow_ = std::move(data_shadow);
  code_parity_ = std::move(code_parity);
  data_parity_ = std::move(data_parity);
  stats_.code_fetches = r.U64();
  stats_.data_reads = r.U64();
  stats_.data_writes = r.U64();
  stats_.parity_errors = r.U64();
  stats_.words_corrupted = r.U64();
  stats_.words_scrubbed = r.U64();
  return r.ToStatus("mram stats");
}

}  // namespace msim
