#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dev/console.h"
#include "dev/intc.h"
#include "dev/nic.h"
#include "dev/timer.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/mram.h"
#include "mem/phys_mem.h"
#include "snap/snapstream.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

TEST(PhysicalMemoryTest, ReadWriteWidths) {
  PhysicalMemory mem(4096);
  EXPECT_TRUE(mem.Write32(0, 0xDEADBEEF));
  EXPECT_EQ(mem.Read32(0), 0xDEADBEEFu);
  EXPECT_EQ(mem.Read8(0), 0xEF);   // little-endian
  EXPECT_EQ(mem.Read8(3), 0xDE);
  EXPECT_EQ(mem.Read16(0), 0xBEEF);
  EXPECT_TRUE(mem.Write8(1, 0x11));
  EXPECT_EQ(mem.Read32(0), 0xDEAD11EFu);
  EXPECT_TRUE(mem.Write16(2, 0x2233));
  EXPECT_EQ(mem.Read32(0), 0x223311EFu);
}

TEST(PhysicalMemoryTest, OutOfRange) {
  PhysicalMemory mem(16);
  EXPECT_FALSE(mem.Read32(13).has_value());
  EXPECT_FALSE(mem.Read32(16).has_value());
  EXPECT_TRUE(mem.Read32(12).has_value());
  EXPECT_FALSE(mem.Write32(0xFFFFFFFE, 1));  // overflow guard
  EXPECT_FALSE(mem.Read8(16).has_value());
}

TEST(PhysicalMemoryTest, LoadSection) {
  PhysicalMemory mem(64);
  Section section;
  section.base = 8;
  section.bytes = {1, 2, 3, 4};
  ASSERT_OK(mem.LoadSection(section));
  EXPECT_EQ(mem.Read32(8), 0x04030201u);
  section.base = 62;
  EXPECT_FALSE(mem.LoadSection(section).ok());
}

// ---------------------------------------------------------------------------
// Lazily committed pages (phys_mem.h): absent pages read as zero, the first
// write commits a page, and the snapshot format is the one the flat
// representation wrote.

constexpr uint32_t kPage = PhysicalMemory::kPageSize;

std::vector<uint8_t> Saved(const PhysicalMemory& mem) {
  SnapWriter w;
  mem.SaveState(w);
  return w.TakeBytes();
}

TEST(PhysicalMemoryTest, AbsentPagesReadZero) {
  PhysicalMemory mem(8 * kPage);
  ASSERT_TRUE(mem.Write32(3 * kPage + 8, 0xFFFFFFFFu));
  for (uint32_t page = 0; page < 8; ++page) {
    EXPECT_EQ(mem.Read32(page * kPage + 4), 0u) << "page " << page;
    EXPECT_EQ(mem.Read16(page * kPage + kPage - 2), 0u) << "page " << page;
    EXPECT_EQ(mem.Read8(page * kPage), 0u) << "page " << page;
  }
  EXPECT_EQ(mem.Read32(3 * kPage + 8), 0xFFFFFFFFu);
}

TEST(PhysicalMemoryTest, ZeroOnlyPageIsNotSerialized) {
  PhysicalMemory fresh(4 * kPage);
  PhysicalMemory zeroed(4 * kPage);
  for (uint32_t offset = 0; offset < kPage; offset += 4) {
    ASSERT_TRUE(zeroed.Write32(2 * kPage + offset, 0));
  }
  ASSERT_TRUE(zeroed.Write8(kPage + 5, 0));
  std::vector<uint8_t> a = Saved(fresh);
  std::vector<uint8_t> b = Saved(zeroed);
  // The images differ only in the write generation (bytes 4..11).
  ASSERT_EQ(a.size(), b.size());
  std::fill(a.begin() + 4, a.begin() + 12, 0);
  std::fill(b.begin() + 4, b.begin() + 12, 0);
  EXPECT_EQ(a, b);
}

TEST(PhysicalMemoryTest, SaveAfterClearEqualsFreshMemory) {
  PhysicalMemory fresh(5 * kPage);
  PhysicalMemory used(5 * kPage);
  for (uint32_t page = 0; page < 5; ++page) {
    ASSERT_TRUE(used.Write32(page * kPage + 12, 0x1234567u + page));
  }
  used.Clear();
  EXPECT_EQ(used.Read32(2 * kPage + 12), 0u);
  // Equal but for the write generation (bytes 4..11), which Clear bumps.
  std::vector<uint8_t> cleared = Saved(used);
  std::vector<uint8_t> expected = Saved(fresh);
  ASSERT_EQ(cleared.size(), expected.size());
  std::fill(cleared.begin() + 4, cleared.begin() + 12, 0);
  std::fill(expected.begin() + 4, expected.begin() + 12, 0);
  EXPECT_EQ(cleared, expected);
}

TEST(PhysicalMemoryTest, AccessesAcrossPageBoundaryRoundTrip) {
  for (uint32_t offset = 0xFFD; offset <= 0xFFF; ++offset) {
    SCOPED_TRACE("page offset " + std::to_string(offset));
    PhysicalMemory mem(3 * kPage);
    const uint32_t paddr = kPage + offset;
    ASSERT_TRUE(mem.Write32(paddr, 0xA1B2C3D4u));
    EXPECT_EQ(mem.Read32(paddr), 0xA1B2C3D4u);
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(mem.Read8(paddr + i), static_cast<uint8_t>(0xA1B2C3D4u >> (8 * i)));
    }
    ASSERT_TRUE(mem.Write16(paddr + 1, 0xBEEF));
    EXPECT_EQ(mem.Read16(paddr + 1), 0xBEEFu);
    EXPECT_EQ(mem.Read32(paddr), 0xA1BEEFD4u);
    // Both pages travel through a snapshot.
    PhysicalMemory restored(3 * kPage);
    const std::vector<uint8_t> image = Saved(mem);
    SnapReader r(image);
    ASSERT_OK(restored.RestoreState(r));
    EXPECT_EQ(restored.Read32(paddr), 0xA1BEEFD4u);
  }
}

TEST(PhysicalMemoryTest, TailPageRoundTrips) {
  constexpr uint32_t kSize = 2 * kPage + 0x46;  // not a multiple of the page size
  PhysicalMemory mem(kSize);
  ASSERT_TRUE(mem.Write32(kSize - 4, 0xCAFEF00Du));
  ASSERT_TRUE(mem.Write8(2 * kPage, 0x77));
  EXPECT_FALSE(mem.Write32(kSize - 2, 1));
  EXPECT_FALSE(mem.Read8(kSize).has_value());
  const std::vector<uint8_t> image = Saved(mem);
  PhysicalMemory restored(kSize);
  SnapReader r(image);
  ASSERT_OK(restored.RestoreState(r));
  EXPECT_EQ(restored.Read32(kSize - 4), 0xCAFEF00Du);
  EXPECT_EQ(restored.Read8(2 * kPage), 0x77);
  EXPECT_EQ(Saved(restored), image);
}

// The DRAM snapshot format is pinned: this multi-page pattern (a zero-only
// page, a page-crossing word, a loaded section and a short tail page)
// digested to this value under the flat-vector representation, before pages
// were committed lazily.
TEST(PhysicalMemoryTest, SaveStateFormatIsPinned) {
  PhysicalMemory mem(6 * kPage + 0x123);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(mem.Write32(i * 4, i * 0x9E3779B1u));
  }
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(mem.Write32(kPage + i * 4, 0));
  }
  for (uint32_t i = 0; i < kPage; ++i) {
    ASSERT_TRUE(mem.Write8(2 * kPage + i, static_cast<uint8_t>(i * 7 + 3)));
  }
  ASSERT_TRUE(mem.Write32(4 * kPage - 2, 0xA1B2C3D4u));
  Section section;
  section.base = 5 * kPage + 0x10;
  section.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_OK(mem.LoadSection(section));
  ASSERT_TRUE(mem.Write16(mem.size() - 2, 0xBEEF));
  ASSERT_TRUE(mem.Write8(6 * kPage, 0x5A));
  SnapWriter w(SnapWriter::Mode::kDigestOnly);
  mem.SaveState(w);
  EXPECT_EQ(w.digest(), 0x303d8fc6b15ccee0ull);
  EXPECT_EQ(w.size(), 20863u);
  EXPECT_EQ(mem.write_generation(), 4180u);
}

// Every write path gives the pages it touches a fresh stamp, and restoring an
// older image never brings an old stamp back (the superblock tier trusts an
// unchanged stamp to mean unchanged bytes).
TEST(PhysicalMemoryTest, PageStampsMoveOnEveryWritePathAndNeverRepeat) {
  PhysicalMemory mem(4 * kPage);
  std::vector<uint64_t> seen;
  const auto stamps = [&mem] {
    std::vector<uint64_t> out;
    for (uint32_t page = 0; page < 4; ++page) {
      out.push_back(mem.page_stamp(page));
    }
    return out;
  };
  // Expects exactly the pages in `moved` to carry new, never-seen stamps.
  const auto expect_moved = [&](const std::vector<uint64_t>& before,
                                std::initializer_list<uint32_t> moved) {
    const std::vector<uint64_t> after = stamps();
    const std::vector<uint64_t> old = seen;
    for (uint32_t page = 0; page < 4; ++page) {
      const bool should_move = std::find(moved.begin(), moved.end(), page) != moved.end();
      EXPECT_EQ(after[page] != before[page], should_move) << "page " << page;
      if (should_move) {
        EXPECT_EQ(std::count(old.begin(), old.end(), after[page]), 0) << "page " << page;
        seen.push_back(after[page]);
      }
    }
  };
  std::vector<uint64_t> before = stamps();
  seen = before;
  ASSERT_TRUE(mem.Write32(kPage + 8, 1));
  expect_moved(before, {1});
  before = stamps();
  ASSERT_TRUE(mem.Write32(2 * kPage - 2, 0xA1B2C3D4u));  // crosses into page 2
  expect_moved(before, {1, 2});
  before = stamps();
  const std::vector<uint8_t> image = Saved(mem);
  Section section;
  section.base = 3 * kPage + 16;
  section.bytes = {1, 2, 3, 4};
  ASSERT_OK(mem.LoadSection(section));
  expect_moved(before, {3});
  before = stamps();
  SnapReader r(image);
  ASSERT_OK(mem.RestoreState(r));  // pages 1 and 2 restored, page 3 cleared
  expect_moved(before, {1, 2, 3});
  before = stamps();
  mem.Clear();
  expect_moved(before, {1, 2});
  EXPECT_EQ(mem.page_stamp(0), seen[0]);  // never written
}

// A destroyed memory's slab is recycled by the next memory of its size on the
// same thread. Recycling must be invisible: the new memory reads zero
// everywhere and serializes exactly like one with a slab of its own.
TEST(PhysicalMemoryTest, RecycledSlabReadsZeroAndSavesLikeAFreshOne) {
  constexpr uint32_t kSize = 1024 * kPage;
  {
    PhysicalMemory dirty(kSize);
    for (uint32_t page = 0; page < 1000; ++page) {
      for (uint32_t offset = 0; offset < kPage; offset += 256) {
        ASSERT_TRUE(dirty.Write32(page * kPage + offset, 0xDEAD0000u | page));
      }
    }
  }
  PhysicalMemory recycled(kSize);  // takes the dead memory's slab
  PhysicalMemory fresh(kSize);     // the spare is taken: a slab of its own
  for (uint32_t paddr = 0; paddr < kSize; paddr += 4) {
    ASSERT_EQ(recycled.Read32(paddr), 0u) << "paddr " << paddr;
  }
  for (PhysicalMemory* mem : {&recycled, &fresh}) {
    for (uint32_t page = 0; page < 1000; page += 7) {
      ASSERT_TRUE(mem->Write8(page * kPage + 100, static_cast<uint8_t>(page)));
    }
  }
  for (uint32_t page = 0; page < 1000; page += 7) {
    EXPECT_EQ(recycled.Read32(page * kPage), 0u);
    EXPECT_EQ(recycled.Read32(page * kPage + 256), 0u);
  }
  EXPECT_EQ(Saved(recycled), Saved(fresh));
}

TEST(BusTest, RoutesDramAndDevices) {
  Bus bus(4096);
  ConsoleDevice console;
  ASSERT_OK(bus.AttachDevice(ConsoleDevice::kDefaultBase, &console));
  EXPECT_TRUE(bus.Write32(0, 7));
  EXPECT_EQ(bus.Read32(0), 7u);
  EXPECT_TRUE(bus.Write32(ConsoleDevice::kDefaultBase, 'A'));
  EXPECT_TRUE(bus.Write32(ConsoleDevice::kDefaultBase, 'B'));
  EXPECT_EQ(console.output(), "AB");
}

TEST(BusTest, UnmappedMmioFails) {
  Bus bus(4096);
  EXPECT_FALSE(bus.Read32(0xF0000000).has_value());
  EXPECT_FALSE(bus.Write32(0xF0000000, 1));
}

TEST(BusTest, RejectsOverlappingDevices) {
  Bus bus(4096);
  ConsoleDevice a;
  ConsoleDevice b;
  ASSERT_OK(bus.AttachDevice(0xF0000000, &a));
  EXPECT_FALSE(bus.AttachDevice(0xF0000800, &b).ok());
  EXPECT_OK(bus.AttachDevice(0xF0001000, &b));
}

TEST(BusTest, SubWordMmioRejected) {
  Bus bus(4096);
  ConsoleDevice console;
  ASSERT_OK(bus.AttachDevice(0xF0000000, &console));
  EXPECT_FALSE(bus.Read8(0xF0000000).has_value());
  EXPECT_FALSE(bus.Write16(0xF0000000, 1));
}

TEST(CacheTest, HitAfterMiss) {
  Cache cache(4, 16, 1, 20);
  EXPECT_EQ(cache.Access(0x100), 20u);  // cold miss
  EXPECT_EQ(cache.Access(0x100), 1u);   // hit
  EXPECT_EQ(cache.Access(0x104), 1u);   // same line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, ConflictEviction) {
  Cache cache(4, 16, 1, 20);
  // 4 lines x 16 bytes: addresses 0 and 64 share index 0.
  EXPECT_EQ(cache.Access(0), 20u);
  EXPECT_EQ(cache.Access(64), 20u);  // evicts 0
  EXPECT_EQ(cache.Access(0), 20u);   // miss again
}

TEST(CacheTest, ProbeDoesNotModify) {
  Cache cache(4, 16, 1, 20);
  EXPECT_FALSE(cache.Probe(0x40));
  cache.Access(0x40);
  EXPECT_TRUE(cache.Probe(0x40));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, InvalidateAll) {
  Cache cache(4, 16, 1, 20);
  cache.Access(0);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Access(0), 20u);
}

TEST(MramTest, CodeFetch) {
  Mram mram;
  EXPECT_TRUE(mram.WriteCodeWord(0, 0x12345678));
  const Mram::CodeFetch fetch = mram.FetchCodeWord(kMramCodeBase);
  EXPECT_EQ(fetch.word, 0x12345678u);
  EXPECT_TRUE(fetch.parity_ok);
  EXPECT_EQ(mram.stats().code_fetches, 1u);
  EXPECT_EQ(mram.PeekCodeWord(kMramCodeBase), 0x12345678u);
  EXPECT_FALSE(mram.PeekCodeWord(kMramCodeBase - 4).has_value());
  EXPECT_FALSE(mram.PeekCodeWord(kMramCodeBase + kMramCodeSize).has_value());
  EXPECT_FALSE(mram.PeekCodeWord(kMramCodeBase + 2).has_value());  // misaligned

  // A flip behind the write path is fetched as stored, fails parity and is
  // counted once per fetch; with parity off the same word passes.
  EXPECT_TRUE(mram.CorruptCodeWord(0, 0xFFFFFFFFu, 1u));
  const Mram::CodeFetch bad = mram.FetchCodeWord(kMramCodeBase);
  EXPECT_EQ(bad.word, 0x12345679u);
  EXPECT_FALSE(bad.parity_ok);
  EXPECT_EQ(mram.stats().parity_errors, 1u);
  mram.SetParityEnabled(false);
  EXPECT_TRUE(mram.FetchCodeWord(kMramCodeBase).parity_ok);
  EXPECT_EQ(mram.stats().parity_errors, 1u);
  EXPECT_EQ(mram.stats().code_fetches, 3u);
}

TEST(MramTest, DataSegment) {
  Mram mram;
  EXPECT_TRUE(mram.WriteData32(0, 0xAABBCCDD));
  EXPECT_EQ(mram.ReadData32(0), 0xAABBCCDDu);
  EXPECT_TRUE(mram.WriteData32(kMramDataSize - 4, 1));
  EXPECT_FALSE(mram.WriteData32(kMramDataSize, 1));
  EXPECT_FALSE(mram.ReadData32(kMramDataSize - 2).has_value());
}

TEST(MramTest, InCodeRange) {
  EXPECT_TRUE(Mram::InCodeRange(kMramCodeBase));
  EXPECT_TRUE(Mram::InCodeRange(kMramCodeBase + kMramCodeSize - 4));
  EXPECT_FALSE(Mram::InCodeRange(kMramCodeBase - 1));
  EXPECT_FALSE(Mram::InCodeRange(0x1000));
}

TEST(IntcTest, RaiseAckViaRegisters) {
  InterruptController intc;
  intc.Raise(3);
  EXPECT_EQ(intc.Read32(0), 8u);
  intc.Write32(4, 0x10);  // software raise line 4
  EXPECT_EQ(intc.pending(), 0x18u);
  intc.Write32(8, 0x08);  // W1C ack line 3
  EXPECT_EQ(intc.pending(), 0x10u);
}

TEST(TimerTest, OneShotFires) {
  InterruptController intc;
  TimerDevice timer;
  timer.Write32(4, 10);  // compare
  timer.Write32(8, 1);   // enable
  for (uint64_t cycle = 1; cycle < 10; ++cycle) {
    timer.Tick(cycle, intc);
    EXPECT_EQ(intc.pending(), 0u) << cycle;
  }
  timer.Tick(10, intc);
  EXPECT_EQ(intc.pending(), 1u << kIrqTimer);
  intc.Clear(kIrqTimer);
  timer.Tick(11, intc);
  EXPECT_EQ(intc.pending(), 0u);  // one-shot
}

TEST(TimerTest, PeriodicRearms) {
  InterruptController intc;
  TimerDevice timer;
  timer.Write32(12, 10);  // interval
  timer.Write32(4, 10);
  timer.Write32(8, 1);
  int fires = 0;
  for (uint64_t cycle = 1; cycle <= 35; ++cycle) {
    timer.Tick(cycle, intc);
    if (intc.pending() != 0) {
      ++fires;
      intc.Clear(kIrqTimer);
    }
  }
  EXPECT_EQ(fires, 3);
}

TEST(NicTest, PacketDeliveryAndDrain) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(5, {1, 2, 3, 4, 5});
  nic.Tick(4, intc);
  EXPECT_EQ(nic.rx_queued(), 0u);
  nic.Tick(5, intc);
  EXPECT_EQ(nic.rx_queued(), 1u);
  EXPECT_EQ(intc.pending(), 1u << kIrqNic);
  EXPECT_EQ(nic.Read32(4), 5u);           // length
  EXPECT_EQ(nic.Read32(8), 0x04030201u);  // first word
  EXPECT_EQ(nic.Read32(8), 0x00000005u);  // tail word, zero-padded
  EXPECT_EQ(nic.rx_queued(), 0u);
}

TEST(NicTest, OrderedByArrival) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(20, {2});
  nic.SchedulePacket(10, {1});
  nic.Tick(30, intc);
  EXPECT_EQ(nic.rx_queued(), 2u);
  EXPECT_EQ(nic.Read32(8) & 0xFF, 1u);
  EXPECT_EQ(nic.Read32(8) & 0xFF, 2u);
}

TEST(NicTest, DropHead) {
  InterruptController intc;
  NicDevice nic;
  nic.SchedulePacket(0, {9});
  nic.Tick(1, intc);
  nic.Write32(12, 1);
  EXPECT_EQ(nic.rx_queued(), 0u);
}

TEST(ConsoleTest, ExitCodeLatch) {
  ConsoleDevice console;
  console.Write32(4, 55);
  EXPECT_EQ(console.Read32(4), 55u);
}

}  // namespace
}  // namespace msim
