#include "mmu/tlb.h"

#include <algorithm>

#include "snap/snapstream.h"

namespace msim {

Tlb::Tlb(uint32_t num_entries)
    : entries_(num_entries),
      words_((num_entries + 63) / 64),
      bucket_shift_(32 - static_cast<uint32_t>(std::countr_zero(
                             std::bit_ceil(std::max(num_entries, 1u) * 2)))),
      index_((size_t{1} << (32 - bucket_shift_)) * words_),
      free_(words_) {
  Reindex();
}

void Tlb::IndexSlot(uint32_t slot) {
  const TlbEntry& entry = entries_[slot];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  index_[BucketOf(entry.vpn, entry.superpage()) * words_ + slot / 64] |= bit;
  free_[slot / 64] &= ~bit;
}

void Tlb::UnindexSlot(uint32_t slot) {
  const TlbEntry& entry = entries_[slot];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  index_[BucketOf(entry.vpn, entry.superpage()) * words_ + slot / 64] &= ~bit;
  free_[slot / 64] |= bit;
}

void Tlb::Invalidate(uint32_t slot) {
  UnindexSlot(slot);
  entries_[slot].valid = false;
}

void Tlb::Reindex() {
  std::fill(index_.begin(), index_.end(), 0);
  std::fill(free_.begin(), free_.end(), 0);
  for (uint32_t slot = 0; slot < capacity(); ++slot) {
    if (entries_[slot].valid) {
      IndexSlot(slot);
    } else {
      free_[slot / 64] |= uint64_t{1} << (slot % 64);
    }
  }
}

void Tlb::Insert(uint32_t vaddr, uint32_t pte, uint16_t asid) {
  const bool superpage = (pte & kPteSuper) != 0;
  const uint32_t shift = superpage ? kSuperPageShift : kPageShift;
  const uint32_t vpn = vaddr >> shift;
  ++stats_.insertions;
  // Update in place if the page is already mapped (same ASID and size). The
  // size is part of the bucket key, so the new PTE keeps the entry's bucket.
  const uint32_t bucket = BucketOf(vpn, superpage);
  const uint32_t same = FindSlot(bucket, bucket, [&](const TlbEntry& entry) {
    return entry.asid == asid && entry.superpage() == superpage && entry.vpn == vpn;
  });
  if (same != kNoSlot) {
    entries_[same].pte = pte;
    return;
  }
  // Prefer the first invalid slot scanning round-robin from the victim; a
  // full scan wraps back to the victim itself, which is then evicted.
  uint32_t index = next_victim_;
  uint32_t w = next_victim_ / 64;
  uint64_t free_bits = free_[w] & (~uint64_t{0} << (next_victim_ % 64));
  for (uint32_t n = 0; free_bits == 0 && n < words_; ++n) {
    w = w + 1 == words_ ? 0 : w + 1;
    free_bits = free_[w];
  }
  if (free_bits != 0) {
    index = w * 64 + static_cast<uint32_t>(std::countr_zero(free_bits));
  }
  if (entries_[index].valid) {
    UnindexSlot(index);
  }
  entries_[index] = TlbEntry{true, vpn, asid, pte};
  IndexSlot(index);
  next_victim_ = index + 1 == capacity() ? 0 : index + 1;
}

void Tlb::InvalidateVaddr(uint32_t vaddr, uint16_t asid) {
  for (uint32_t slot = FindMatch(vaddr, asid); slot != kNoSlot; slot = FindMatch(vaddr, asid)) {
    Invalidate(slot);
  }
}

void Tlb::FlushAsid(uint16_t asid) {
  for (uint32_t slot = 0; slot < capacity(); ++slot) {
    const TlbEntry& entry = entries_[slot];
    if (entry.valid && !entry.global() && entry.asid == asid) {
      Invalidate(slot);
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& entry : entries_) {
    entry.valid = false;
  }
  Reindex();
}

bool Tlb::CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
  const uint32_t slot = index % capacity();
  TlbEntry& entry = entries_[slot];
  if (!entry.valid) {
    return false;
  }
  // The S bit is part of the bucket key: re-key the slot around the write.
  UnindexSlot(slot);
  entry.pte = (entry.pte & and_mask) ^ xor_mask;
  IndexSlot(slot);
  return true;
}

uint32_t Tlb::ValidCount() const {
  uint32_t free_slots = 0;
  for (const uint64_t bits : free_) {
    free_slots += static_cast<uint32_t>(std::popcount(bits));
  }
  return capacity() - free_slots;
}

void Tlb::SaveState(SnapWriter& w) const {
  w.U32(capacity());
  for (const TlbEntry& entry : entries_) {
    w.Bool(entry.valid);
    w.U32(entry.vpn);
    w.U16(entry.asid);
    w.U32(entry.pte);
  }
  w.U32(next_victim_);
  w.U64(stats_.hits);
  w.U64(stats_.misses);
  w.U64(stats_.insertions);
}

Status Tlb::RestoreState(SnapReader& r) {
  const uint32_t saved_capacity = r.U32();
  MSIM_RETURN_IF_ERROR(r.ToStatus("tlb header"));
  if (saved_capacity != capacity()) {
    return InvalidArgument("snapshot TLB capacity differs from this configuration");
  }
  for (TlbEntry& entry : entries_) {
    entry.valid = r.Bool();
    entry.vpn = r.U32();
    entry.asid = r.U16();
    entry.pte = r.U32();
  }
  Reindex();
  next_victim_ = r.U32();
  stats_.hits = r.U64();
  stats_.misses = r.U64();
  stats_.insertions = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("tlb entries"));
  if (next_victim_ >= capacity()) {
    return InvalidArgument("snapshot TLB victim index is out of range");
  }
  return Status::Ok();
}

}  // namespace msim
