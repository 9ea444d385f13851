#include <gtest/gtest.h>

#include <vector>

#include "mmu/mmu.h"
#include "mmu/tlb.h"
#include "snap/snapstream.h"
#include "support/rng.h"

namespace msim {
namespace {

constexpr uint32_t kRwx = kPteR | kPteW | kPteX;

TEST(TlbTest, InsertAndLookup) {
  Tlb tlb(4);
  tlb.Insert(0x00401000, MakePte(0x00080000, kRwx), /*asid=*/1);
  const TlbEntry* entry = tlb.Lookup(0x00401ABC, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->pte & 0xFFFFF000u, 0x00080000u);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.Lookup(0x00402000, 1), nullptr);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, AsidIsolation) {
  Tlb tlb(4);
  tlb.Insert(0x1000, MakePte(0x2000, kRwx), 1);
  EXPECT_EQ(tlb.Lookup(0x1000, 2), nullptr);
  EXPECT_NE(tlb.Lookup(0x1000, 1), nullptr);
}

TEST(TlbTest, GlobalEntriesMatchAllAsids) {
  Tlb tlb(4);
  tlb.Insert(0x1000, MakePte(0x2000, kRwx, 0, /*global=*/true), 1);
  EXPECT_NE(tlb.Lookup(0x1000, 2), nullptr);
  EXPECT_NE(tlb.Lookup(0x1000, 7), nullptr);
}

TEST(TlbTest, SuperpageMatches4MiB) {
  Tlb tlb(4);
  tlb.Insert(0x00800000, MakePte(0x11400000, kRwx, 0, false, /*superpage=*/true), 1);
  EXPECT_NE(tlb.Lookup(0x00BFFFFC, 1), nullptr);  // same 4 MiB region
  EXPECT_EQ(tlb.Lookup(0x00C00000, 1), nullptr);
}

TEST(TlbTest, UpdateInPlace) {
  Tlb tlb(2);
  tlb.Insert(0x1000, MakePte(0x2000, kPteR), 1);
  tlb.Insert(0x1000, MakePte(0x3000, kRwx), 1);
  EXPECT_EQ(tlb.ValidCount(), 1u);
  EXPECT_EQ(tlb.Probe(0x1000, 1) & 0xFFFFF000u, 0x3000u);
}

TEST(TlbTest, RoundRobinReplacement) {
  Tlb tlb(2);
  tlb.Insert(0x1000, MakePte(0xA000, kRwx), 1);
  tlb.Insert(0x2000, MakePte(0xB000, kRwx), 1);
  tlb.Insert(0x3000, MakePte(0xC000, kRwx), 1);  // evicts one
  EXPECT_EQ(tlb.ValidCount(), 2u);
  EXPECT_NE(tlb.Probe(0x3000, 1), 0u);
}

TEST(TlbTest, InvalidateAndFlush) {
  Tlb tlb(8);
  tlb.Insert(0x1000, MakePte(0xA000, kRwx), 1);
  tlb.Insert(0x2000, MakePte(0xB000, kRwx), 1);
  tlb.Insert(0x3000, MakePte(0xC000, kRwx), 2);
  tlb.InvalidateVaddr(0x1000, 1);
  EXPECT_EQ(tlb.Probe(0x1000, 1), 0u);
  EXPECT_NE(tlb.Probe(0x2000, 1), 0u);
  tlb.FlushAsid(1);
  EXPECT_EQ(tlb.Probe(0x2000, 1), 0u);
  EXPECT_NE(tlb.Probe(0x3000, 2), 0u);
  tlb.FlushAll();
  EXPECT_EQ(tlb.ValidCount(), 0u);
}

TEST(TlbTest, FlushAsidKeepsGlobal) {
  Tlb tlb(8);
  tlb.Insert(0x1000, MakePte(0xA000, kRwx, 0, /*global=*/true), 1);
  tlb.FlushAsid(1);
  EXPECT_NE(tlb.Probe(0x1000, 1), 0u);
}

// Linear-scan reference for the indexed Tlb: the first valid match in slot
// order wins, and replacement takes the first invalid slot at or after the
// round-robin victim. Serializes in Tlb::SaveState's format.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(uint32_t capacity) : entries_(capacity) {}

  const TlbEntry* Peek(uint32_t vaddr, uint16_t asid) const {
    for (const TlbEntry& entry : entries_) {
      if (Matches(entry, vaddr, asid)) {
        return &entry;
      }
    }
    return nullptr;
  }
  const TlbEntry* Lookup(uint32_t vaddr, uint16_t asid) {
    const TlbEntry* entry = Peek(vaddr, asid);
    ++(entry != nullptr ? stats_.hits : stats_.misses);
    return entry;
  }
  void Insert(uint32_t vaddr, uint32_t pte, uint16_t asid) {
    const bool superpage = (pte & kPteSuper) != 0;
    const uint32_t vpn = vaddr >> (superpage ? kSuperPageShift : kPageShift);
    ++stats_.insertions;
    for (TlbEntry& entry : entries_) {
      if (entry.valid && entry.asid == asid && entry.superpage() == superpage &&
          entry.vpn == vpn) {
        entry.pte = pte;
        return;
      }
    }
    const uint32_t size = static_cast<uint32_t>(entries_.size());
    uint32_t index = next_victim_;
    for (uint32_t i = 0; i < size && entries_[index].valid; ++i) {
      index = (index + 1) % size;
    }
    entries_[index] = TlbEntry{true, vpn, asid, pte};
    next_victim_ = (index + 1) % size;
  }
  void InvalidateVaddr(uint32_t vaddr, uint16_t asid) {
    for (TlbEntry& entry : entries_) {
      if (Matches(entry, vaddr, asid)) {
        entry.valid = false;
      }
    }
  }
  void FlushAsid(uint16_t asid) {
    for (TlbEntry& entry : entries_) {
      if (entry.valid && !entry.global() && entry.asid == asid) {
        entry.valid = false;
      }
    }
  }
  void FlushAll() {
    for (TlbEntry& entry : entries_) {
      entry.valid = false;
    }
  }
  bool CorruptEntry(uint32_t index, uint32_t and_mask, uint32_t xor_mask) {
    TlbEntry& entry = entries_[index % entries_.size()];
    if (!entry.valid) {
      return false;
    }
    entry.pte = (entry.pte & and_mask) ^ xor_mask;
    return true;
  }
  uint32_t ValidCount() const {
    uint32_t count = 0;
    for (const TlbEntry& entry : entries_) {
      count += entry.valid ? 1 : 0;
    }
    return count;
  }
  const TlbStats& stats() const { return stats_; }
  std::vector<uint8_t> Save() const {
    SnapWriter w;
    w.U32(static_cast<uint32_t>(entries_.size()));
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
    return w.TakeBytes();
  }

 private:
  static bool Matches(const TlbEntry& entry, uint32_t vaddr, uint16_t asid) {
    if (!entry.valid || (!entry.global() && entry.asid != asid)) {
      return false;
    }
    return entry.vpn == vaddr >> (entry.superpage() ? kSuperPageShift : kPageShift);
  }

  std::vector<TlbEntry> entries_;
  uint32_t next_victim_ = 0;
  TlbStats stats_;
};

std::vector<uint8_t> SaveTlb(const Tlb& tlb) {
  SnapWriter w;
  tlb.SaveState(w);
  return w.TakeBytes();
}

// A vaddr from a small pool of overlapping 4 KiB pages and 4 MiB regions
// (so global, ASID, small and super entries shadow each other), or now and
// then an arbitrary page to exercise hash collisions.
uint32_t RandomVaddr(Rng& rng) {
  if (rng.Chance(1, 16)) {
    return rng.Next32();
  }
  const uint32_t region = static_cast<uint32_t>(rng.Below(3)) << kSuperPageShift;
  const uint32_t page = static_cast<uint32_t>(rng.Below(24)) << kPageShift;
  return 0x00400000u + region + page + static_cast<uint32_t>(rng.Below(kPageSize));
}

uint32_t RandomPte(Rng& rng) {
  return MakePte(rng.Next32(), static_cast<uint32_t>(rng.Below(8)) << 3,
                 static_cast<uint32_t>(rng.Below(16)), /*global=*/rng.Chance(1, 5),
                 /*superpage=*/rng.Chance(1, 4));
}

void ExpectSameEntry(const TlbEntry* got, const TlbEntry* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (want != nullptr) {
    EXPECT_EQ(got->vpn, want->vpn);
    EXPECT_EQ(got->asid, want->asid);
    EXPECT_EQ(got->pte, want->pte);
  }
}

// The indexed Tlb answers every operation exactly like the linear scan:
// same first match, same victims, same counters and the same SaveState
// bytes after every step, for capacities on both sides of the 64-slot word.
class TlbEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TlbEquivalenceTest, MatchesLinearScanReference) {
  const uint32_t capacity = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 1000003 + capacity);
    Tlb tlb(capacity);
    ReferenceTlb ref(capacity);
    for (int step = 0; step < 4000; ++step) {
      const uint32_t vaddr = RandomVaddr(rng);
      const uint16_t asid = static_cast<uint16_t>(rng.Below(3));
      const uint64_t op = rng.Below(100);
      if (op < 30) {
        const uint32_t pte = RandomPte(rng);
        tlb.Insert(vaddr, pte, asid);
        ref.Insert(vaddr, pte, asid);
      } else if (op < 55) {
        ExpectSameEntry(tlb.Lookup(vaddr, asid), ref.Lookup(vaddr, asid));
      } else if (op < 65) {
        ExpectSameEntry(tlb.PeekLookup(vaddr, asid), ref.Peek(vaddr, asid));
      } else if (op < 75) {
        const TlbEntry* want = ref.Peek(vaddr, asid);
        EXPECT_EQ(tlb.Probe(vaddr, asid), want != nullptr ? want->pte : 0u);
      } else if (op < 82) {
        tlb.InvalidateVaddr(vaddr, asid);
        ref.InvalidateVaddr(vaddr, asid);
      } else if (op < 85) {
        tlb.FlushAsid(asid);
        ref.FlushAsid(asid);
      } else if (op < 86) {
        tlb.FlushAll();
        ref.FlushAll();
      } else if (op < 95) {
        // Mostly flip S (re-keys the slot) or G; sometimes scramble.
        const uint32_t index = static_cast<uint32_t>(rng.Below(2 * capacity));
        const uint32_t flip = rng.Chance(1, 3)   ? kPteSuper
                              : rng.Chance(1, 2) ? kPteGlobal
                                                 : rng.Next32();
        const uint32_t and_mask = rng.Chance(1, 4) ? rng.Next32() : 0xFFFFFFFFu;
        EXPECT_EQ(tlb.CorruptEntry(index, and_mask, flip),
                  ref.CorruptEntry(index, and_mask, flip));
      } else {
        // Save, mutate, then restore the saved image: the index must be
        // rebuilt from the entries, not carried over.
        const std::vector<uint8_t> image = SaveTlb(tlb);
        tlb.Insert(RandomVaddr(rng), RandomPte(rng), asid);
        tlb.InvalidateVaddr(vaddr, asid);
        SnapReader reader(image);
        ASSERT_TRUE(tlb.RestoreState(reader).ok());
      }
      EXPECT_EQ(tlb.ValidCount(), ref.ValidCount());
      EXPECT_EQ(tlb.stats().hits, ref.stats().hits);
      EXPECT_EQ(tlb.stats().misses, ref.stats().misses);
      EXPECT_EQ(tlb.stats().insertions, ref.stats().insertions);
      ASSERT_EQ(SaveTlb(tlb), ref.Save()) << "capacity " << capacity << " seed " << seed
                                          << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbEquivalenceTest,
                         ::testing::Values(1u, 2u, 31u, 32u, 33u, 64u, 65u, 128u));

class MmuTranslateTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kAllKeys = 0xFFFFFFFF;
  Mmu mmu_{8};
};

TEST_F(MmuTranslateTest, MissFaultsByAccessType) {
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kLoad, 0, kAllKeys).fault,
            ExcCause::kTlbMissLoad);
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kStore, 0, kAllKeys).fault,
            ExcCause::kTlbMissStore);
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kFetch, 0, kAllKeys).fault,
            ExcCause::kTlbMissFetch);
}

TEST_F(MmuTranslateTest, PermissionChecks) {
  mmu_.tlb().Insert(0x1000, MakePte(0x5000, kPteR), 0);
  EXPECT_TRUE(mmu_.Translate(0x1000, AccessType::kLoad, 0, kAllKeys).ok);
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kStore, 0, kAllKeys).fault,
            ExcCause::kPageFaultStore);
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kFetch, 0, kAllKeys).fault,
            ExcCause::kPageFaultFetch);
}

TEST_F(MmuTranslateTest, OffsetPreserved) {
  mmu_.tlb().Insert(0x00401000, MakePte(0x00080000, kRwx), 0);
  const TranslateResult r = mmu_.Translate(0x00401ABC, AccessType::kLoad, 0, kAllKeys);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.paddr, 0x00080ABCu);
}

TEST_F(MmuTranslateTest, SuperpageOffset) {
  mmu_.tlb().Insert(0x00800000, MakePte(0x11400000, kRwx, 0, false, true), 0);
  const TranslateResult r = mmu_.Translate(0x008ABCDE, AccessType::kLoad, 0, kAllKeys);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.paddr, 0x114ABCDEu);
}

TEST_F(MmuTranslateTest, PageKeyDeniesRead) {
  // Key 2 occupies KEYPERM bits 4 (read) and 5 (write).
  mmu_.tlb().Insert(0x1000, MakePte(0x5000, kRwx, /*key=*/2), 0);
  const uint32_t no_key2 = 0xFFFFFFFF & ~0x30u;
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kLoad, 0, no_key2).fault,
            ExcCause::kKeyViolation);
  EXPECT_TRUE(mmu_.Translate(0x1000, AccessType::kLoad, 0, 0xFFFFFFFF).ok);
}

TEST_F(MmuTranslateTest, PageKeyReadOnlyDeniesWrite) {
  mmu_.tlb().Insert(0x1000, MakePte(0x5000, kRwx, /*key=*/2), 0);
  const uint32_t read_only_key2 = (0xFFFFFFFF & ~0x30u) | 0x10u;
  EXPECT_TRUE(mmu_.Translate(0x1000, AccessType::kLoad, 0, read_only_key2).ok);
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kStore, 0, read_only_key2).fault,
            ExcCause::kKeyViolation);
}

TEST_F(MmuTranslateTest, BatchPermissionChangeViaKeyperm) {
  // The paper's motivation for page keys: one register write revokes a whole
  // class of pages at once.
  for (uint32_t page = 0; page < 4; ++page) {
    mmu_.tlb().Insert(0x10000 + page * kPageSize, MakePte(0x50000 + page * kPageSize, kRwx, 5),
                      0);
  }
  const uint32_t all = 0xFFFFFFFF;
  const uint32_t revoked = all & ~(3u << 10);  // key 5 bits
  for (uint32_t page = 0; page < 4; ++page) {
    EXPECT_TRUE(mmu_.Translate(0x10000 + page * kPageSize, AccessType::kLoad, 0, all).ok);
    EXPECT_EQ(mmu_.Translate(0x10000 + page * kPageSize, AccessType::kLoad, 0, revoked).fault,
              ExcCause::kKeyViolation);
  }
}

}  // namespace
}  // namespace msim
