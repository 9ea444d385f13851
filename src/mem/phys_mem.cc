#include "mem/phys_mem.h"

#include <algorithm>
#include <bit>
#include <span>

#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {

namespace {

// What every absent page reads as.
alignas(64) const uint8_t kZeroPage[PhysicalMemory::kPageSize] = {};

bool AllZero(const uint8_t* bytes, uint32_t length) {
  return std::memcmp(bytes, kZeroPage, length) == 0;
}

// Calls fn(page) for every set bit of `bitmap`, in ascending page order.
template <typename Fn>
void ForEachPage(const std::vector<uint64_t>& bitmap, Fn&& fn) {
  for (size_t word = 0; word < bitmap.size(); ++word) {
    for (uint64_t bits = bitmap[word]; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(word * 64 + std::countr_zero(bits)));
    }
  }
}

// The slab of the last memory destroyed on this thread. Machines are built
// and dropped in loops (campaign trials, checkpoint restores); handing each
// multi-MiB slab back to malloc makes the next machine fault in again every
// page it touches, and can let malloc trim the heap under the caller's own
// allocations.
struct SpareSlab {
  std::unique_ptr<uint8_t[]> bytes;
  size_t size = 0;
};
thread_local SpareSlab g_spare_slab;

}  // namespace

PhysicalMemory::PhysicalMemory(uint32_t size_bytes) : size_(size_bytes) {
  const uint32_t pages = static_cast<uint32_t>(
      (static_cast<uint64_t>(size_bytes) + kPageSize - 1) >> kPageBits);
  const size_t slab_size = static_cast<size_t>(pages) * kPageSize;
  if (g_spare_slab.bytes != nullptr && g_spare_slab.size == slab_size) {
    slab_ = std::move(g_spare_slab.bytes);
  } else {
    slab_ = std::make_unique_for_overwrite<uint8_t[]>(slab_size);
  }
  read_.assign(pages, kZeroPage);
  write_.assign(pages, nullptr);
  committed_.assign((pages + 63) / 64, 0);
  stamp_.assign(pages, 0);
}

PhysicalMemory::~PhysicalMemory() {
  g_spare_slab = {std::move(slab_), static_cast<size_t>(num_pages()) * kPageSize};
}

uint32_t PhysicalMemory::PageLength(uint32_t page) const {
  return std::min(kPageSize, size_ - (page << kPageBits));
}

uint8_t* PhysicalMemory::Commit(uint32_t page) {
  uint8_t* bytes = slab_.get() + (static_cast<size_t>(page) << kPageBits);
  read_[page] = bytes;
  write_[page] = bytes;
  committed_[page / 64] |= uint64_t{1} << (page % 64);
  return bytes;
}

uint8_t* PhysicalMemory::CommitZeroed(uint32_t page) {
  uint8_t* bytes = Commit(page);
  std::memset(bytes, 0, kPageSize);
  return bytes;
}

Status PhysicalMemory::LoadSection(const Section& section) {
  if (section.bytes.empty()) {
    return Status::Ok();
  }
  if (section.base + section.bytes.size() > size_ ||
      section.base + section.bytes.size() < section.base) {
    return OutOfRange(StrFormat("section [0x%08x, 0x%08x) does not fit in %u bytes of memory",
                                section.base, section.end(), size()));
  }
  const uint8_t* src = section.bytes.data();
  uint32_t paddr = section.base;
  for (size_t left = section.bytes.size(); left > 0;) {
    const uint32_t offset = paddr & (kPageSize - 1);
    const uint32_t chunk = static_cast<uint32_t>(std::min<size_t>(left, kPageSize - offset));
    std::memcpy(WritablePage(paddr >> kPageBits) + offset, src, chunk);
    stamp_[paddr >> kPageBits] = ++stamp_clock_;
    src += chunk;
    paddr += chunk;
    left -= chunk;
  }
  ++write_generation_;
  return Status::Ok();
}

void PhysicalMemory::Clear() {
  const uint64_t stamp = ++stamp_clock_;
  ForEachPage(committed_, [this, stamp](uint32_t page) {
    read_[page] = kZeroPage;
    write_[page] = nullptr;
    stamp_[page] = stamp;
  });
  std::fill(committed_.begin(), committed_.end(), 0);
  ++write_generation_;
}

void PhysicalMemory::SaveState(SnapWriter& w) const {
  w.U32(size());
  w.U64(write_generation_);
  w.U32(kPageSize);
  // Absent pages are zero; a committed page is live iff it still holds a
  // non-zero byte (a page written only with zeros is not serialized).
  std::vector<uint32_t> live;
  ForEachPage(committed_, [&](uint32_t page) {
    if (!AllZero(read_[page], PageLength(page))) {
      live.push_back(page);
    }
  });
  w.U32(static_cast<uint32_t>(live.size()));
  for (const uint32_t page : live) {
    w.U32(page);
    w.Bytes(read_[page], PageLength(page));
  }
}

Status PhysicalMemory::RestoreState(SnapReader& r) {
  const uint32_t saved_size = r.U32();
  const uint64_t saved_generation = r.U64();
  const uint32_t page_size = r.U32();
  const uint32_t live_pages = r.U32();
  MSIM_RETURN_IF_ERROR(r.ToStatus("dram header"));
  if (saved_size != size()) {
    return InvalidArgument(StrFormat("snapshot DRAM size %u differs from configured size %u",
                                     saved_size, size()));
  }
  if (page_size != kPageSize) {
    return InvalidArgument(StrFormat("snapshot DRAM page size %u unsupported", page_size));
  }
  if (live_pages > num_pages()) {
    return InvalidArgument(StrFormat("snapshot DRAM claims %u live pages of %u", live_pages,
                                     num_pages()));
  }
  Clear();
  const uint64_t stamp = ++stamp_clock_;
  uint32_t last_page = 0;
  for (uint32_t i = 0; i < live_pages; ++i) {
    const uint32_t page = r.U32();
    const std::span<const uint8_t> contents = r.BytesView();
    MSIM_RETURN_IF_ERROR(r.ToStatus("dram page"));
    if (page >= num_pages()) {
      return InvalidArgument(StrFormat("snapshot DRAM page %u out of range", page));
    }
    // SaveState writes pages in ascending order, once each; anything else
    // would not re-serialize to the same image.
    if (i > 0 && page <= last_page) {
      return InvalidArgument(StrFormat("snapshot DRAM page %u follows page %u", page,
                                       last_page));
    }
    last_page = page;
    if (contents.size() != PageLength(page)) {
      return InvalidArgument(StrFormat("snapshot DRAM page %u holds %zu bytes, not %u", page,
                                       contents.size(), PageLength(page)));
    }
    std::memcpy(Commit(page), contents.data(), contents.size());
    stamp_[page] = stamp;
  }
  // Last: Clear() above bumps the generation, and a restored machine must
  // report exactly the saved value or the re-serialized state diverges.
  write_generation_ = saved_generation;
  return Status::Ok();
}

}  // namespace msim
