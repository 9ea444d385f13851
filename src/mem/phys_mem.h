// Simulated DRAM, committed lazily one 4 KiB page at a time.
//
// Each memory owns one uninitialized slab of size() bytes, rounded up to
// whole pages. The slab is never cleared as a whole. Two per-page tables sit
// in front of it:
//   * read_[p] points at page p of the slab once the page is committed, and
//     at one shared static zero page before that, so a read never branches
//     on whether its page exists;
//   * write_[p] is null until the page's first write. That write zeroes the
//     page in the slab (CommitZeroed) and publishes it in both tables.
// A bitmap of committed pages lets Clear, SaveState and RestoreState visit
// only the pages ever written, so construction, restore, save and the state
// digest cost O(touched pages), not O(size()). An access that crosses a page
// boundary is byte-assembled little-endian. docs/performance.md ("DRAM
// representation") records why this is one slab rather than a `new` or an
// mmap per page, and why pages carry no copy-on-write sharing or cached hash.
#ifndef MSIM_MEM_PHYS_MEM_H_
#define MSIM_MEM_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "asm/program.h"
#include "support/result.h"

namespace msim {

class SnapWriter;
class SnapReader;

class PhysicalMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  explicit PhysicalMemory(uint32_t size_bytes);

  uint32_t size() const { return size_; }

  // Accessors; nullopt/false on out-of-range. Alignment is checked by the CPU
  // core before these are called, but misaligned addresses are still handled
  // correctly (little-endian, byte-assembled across a page boundary).
  std::optional<uint32_t> Read32(uint32_t paddr) const { return Read<uint32_t>(paddr); }
  std::optional<uint16_t> Read16(uint32_t paddr) const { return Read<uint16_t>(paddr); }
  std::optional<uint8_t> Read8(uint32_t paddr) const { return Read<uint8_t>(paddr); }
  bool Write32(uint32_t paddr, uint32_t value) { return Write<uint32_t>(paddr, value); }
  bool Write16(uint32_t paddr, uint16_t value) { return Write<uint16_t>(paddr, value); }
  bool Write8(uint32_t paddr, uint8_t value) { return Write<uint8_t>(paddr, value); }

  // Copies a program section into memory. Fails if it does not fit.
  Status LoadSection(const Section& section);

  // Zeroes all of memory by un-committing every committed page.
  void Clear();

  // Monotonic mutation counter: bumped by every successful write, section
  // load, Clear and RestoreState. The predecode cache (src/cpu/predecode.h)
  // keys decoded DRAM words on this, so any write path — pipeline stores,
  // the loader, host-side pokes through Bus — implicitly invalidates stale
  // decodes without a snoop port.
  uint64_t write_generation() const { return write_generation_; }

  // Checkpoint/restore (src/snap). The image is sparse and page-granular:
  // only pages containing a non-zero byte are written, in ascending page
  // order, so a 16 MiB DRAM with a small program serializes to a few KiB.
  // Restore zeroes everything first. It fails if the saved size differs from
  // this memory's size, or if a page record is malformed: an index out of
  // range or not strictly ascending, a blob that is not exactly the page's
  // length (only the tail page may be shorter than kPageSize), or more
  // records than pages.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  uint32_t num_pages() const { return static_cast<uint32_t>(read_.size()); }
  // Bytes of page `page` inside [0, size()): kPageSize except for a short
  // tail page.
  uint32_t PageLength(uint32_t page) const;

  // Publishes `page` in both tables and the committed bitmap and returns its
  // slab bytes, which the caller must initialize.
  uint8_t* Commit(uint32_t page);
  // The first write to a page lands here: commit it and zero it.
  uint8_t* CommitZeroed(uint32_t page);
  uint8_t* WritablePage(uint32_t page) {
    uint8_t* bytes = write_[page];
    return bytes != nullptr ? bytes : CommitZeroed(page);
  }

  template <typename T>
  bool InRange(uint32_t paddr) const {
    const uint32_t end = paddr + static_cast<uint32_t>(sizeof(T));
    return end <= size_ && end >= paddr;
  }

  template <typename T>
  std::optional<T> Read(uint32_t paddr) const {
    if (!InRange<T>(paddr)) {
      return std::nullopt;
    }
    const uint32_t offset = paddr & (kPageSize - 1);
    T value = 0;
    if (offset + sizeof(T) <= kPageSize) [[likely]] {
      std::memcpy(&value, read_[paddr >> kPageBits] + offset, sizeof(T));
    } else {
      for (uint32_t i = 0; i < sizeof(T); ++i) {
        const uint32_t a = paddr + i;
        value |= static_cast<T>(static_cast<T>(read_[a >> kPageBits][a & (kPageSize - 1)])
                                << (8 * i));
      }
    }
    return value;
  }

  template <typename T>
  bool Write(uint32_t paddr, T value) {
    if (!InRange<T>(paddr)) {
      return false;
    }
    const uint32_t offset = paddr & (kPageSize - 1);
    if (offset + sizeof(T) <= kPageSize) [[likely]] {
      std::memcpy(WritablePage(paddr >> kPageBits) + offset, &value, sizeof(T));
    } else {
      for (uint32_t i = 0; i < sizeof(T); ++i) {
        const uint32_t a = paddr + i;
        WritablePage(a >> kPageBits)[a & (kPageSize - 1)] =
            static_cast<uint8_t>(value >> (8 * i));
      }
    }
    ++write_generation_;
    return true;
  }

  uint32_t size_;
  std::unique_ptr<uint8_t[]> slab_;    // num_pages() * kPageSize, uninitialized
  std::vector<const uint8_t*> read_;   // per page: slab page or the zero page
  std::vector<uint8_t*> write_;        // per page: slab page, or null if absent
  std::vector<uint64_t> committed_;    // bitmap over pages
  uint64_t write_generation_ = 0;
};

}  // namespace msim

#endif  // MSIM_MEM_PHYS_MEM_H_
