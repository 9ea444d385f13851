#include "mmu/tlb.h"

#include "snap/snapstream.h"

namespace msim {

Tlb::Tlb(uint32_t num_entries) : entries_(num_entries) {}

bool Tlb::Matches(const TlbEntry& entry, uint32_t vaddr, uint16_t asid) const {
  if (!entry.valid) {
    return false;
  }
  if (!entry.global() && entry.asid != asid) {
    return false;
  }
  const uint32_t shift = entry.superpage() ? kSuperPageShift : kPageShift;
  return entry.vpn == (vaddr >> shift);
}

const TlbEntry* Tlb::Lookup(uint32_t vaddr, uint16_t asid) {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      ++stats_.hits;
      return &entry;
    }
  }
  ++stats_.misses;
  return nullptr;
}

const TlbEntry* Tlb::PeekLookup(uint32_t vaddr, uint16_t asid) const {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      return &entry;
    }
  }
  return nullptr;
}

void Tlb::Insert(uint32_t vaddr, uint32_t pte, uint16_t asid) {
  const bool superpage = (pte & kPteSuper) != 0;
  const uint32_t shift = superpage ? kSuperPageShift : kPageShift;
  const uint32_t vpn = vaddr >> shift;
  ++stats_.insertions;
  // Update in place if the page is already mapped (same ASID and size).
  for (TlbEntry& entry : entries_) {
    if (entry.valid && entry.asid == asid && entry.superpage() == superpage &&
        entry.vpn == vpn) {
      entry.pte = pte;
      return;
    }
  }
  // Prefer the first invalid slot scanning round-robin from the victim; a
  // full scan wraps back to the victim itself, which is then evicted.
  const uint32_t size = capacity();
  uint32_t index = next_victim_;
  for (uint32_t i = 0; i < size && entries_[index].valid; ++i) {
    if (++index == size) {
      index = 0;
    }
  }
  entries_[index] = TlbEntry{true, vpn, asid, pte};
  next_victim_ = index + 1 == size ? 0 : index + 1;
}

uint32_t Tlb::Probe(uint32_t vaddr, uint16_t asid) const {
  for (const TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      return entry.pte;
    }
  }
  return 0;
}

void Tlb::InvalidateVaddr(uint32_t vaddr, uint16_t asid) {
  for (TlbEntry& entry : entries_) {
    if (Matches(entry, vaddr, asid)) {
      entry.valid = false;
    }
  }
}

void Tlb::FlushAsid(uint16_t asid) {
  for (TlbEntry& entry : entries_) {
    if (entry.valid && !entry.global() && entry.asid == asid) {
      entry.valid = false;
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& entry : entries_) {
    entry.valid = false;
  }
}

bool Tlb::CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
  TlbEntry& entry = entries_[index % entries_.size()];
  if (!entry.valid) {
    return false;
  }
  entry.pte = (entry.pte & and_mask) ^ xor_mask;
  return true;
}

uint32_t Tlb::ValidCount() const {
  uint32_t count = 0;
  for (const TlbEntry& entry : entries_) {
    count += entry.valid ? 1 : 0;
  }
  return count;
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
