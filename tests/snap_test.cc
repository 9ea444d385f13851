// Tests for the checkpoint/restore subsystem (src/snap/): the byte-stream
// codec, snapshot container validation, and the round-trip property — a run
// snapshotted at an arbitrary cycle and restored into a fresh machine must be
// indistinguishable from the uninterrupted run (docs/determinism.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "mem/phys_mem.h"
#include "metal/system.h"
#include "snap/replay.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/exit_codes.h"
#include "support/result.h"
#include "support/rng.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// ---------------------------------------------------------------------------
// SnapWriter / SnapReader.

TEST(SnapStreamTest, RoundTripsAllTypes) {
  SnapWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.Bool(true);
  w.Bool(false);
  w.Bytes(std::vector<uint8_t>{1, 2, 3});
  w.Str("hello");

  SnapReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Bytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapStreamTest, TruncationIsStickyAndReportsContext) {
  SnapWriter w;
  w.U32(7);
  SnapReader r(w.bytes());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero, and ok() flips
  EXPECT_FALSE(r.ok());
  const Status status = r.ToStatus("test payload");
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("test payload"), std::string::npos);
}

TEST(SnapStreamTest, DigestOnlyModeMatchesBufferedDigest) {
  SnapWriter buffered;
  SnapWriter digest_only(SnapWriter::Mode::kDigestOnly);
  for (SnapWriter* w : {&buffered, &digest_only}) {
    w->U64(0x1122334455667788ull);
    w->Str("digest me");
    w->U8(9);
  }
  EXPECT_EQ(buffered.digest(), digest_only.digest());
  EXPECT_EQ(digest_only.size(), buffered.size());
  EXPECT_TRUE(digest_only.bytes().empty());
}

// ---------------------------------------------------------------------------
// CoreConfig hashing.

TEST(CoreConfigHashTest, EqualConfigsHashEqual) {
  CoreConfig a;
  CoreConfig b;
  EXPECT_EQ(CoreConfigHash(a), CoreConfigHash(b));
}

TEST(CoreConfigHashTest, TimingFieldsChangeTheHash) {
  const CoreConfig base;
  CoreConfig no_fast = base;
  no_fast.fast_transition = false;
  CoreConfig dram = base;
  dram.mroutine_storage = MroutineStorage::kDramCached;
  CoreConfig watchdog = base;
  watchdog.metal_watchdog_cycles = 1000;
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(no_fast));
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(dram));
  EXPECT_NE(CoreConfigHash(base), CoreConfigHash(watchdog));
  EXPECT_NE(CoreConfigHash(no_fast), CoreConfigHash(dram));
}

// The host-tier stepping knob is architecturally invisible and never
// serialized, so snapshots are portable across it.
TEST(CoreConfigHashTest, HostTierKnobsLeaveTheHash) {
  const CoreConfig base;
  CoreConfig per_cycle = base;
  per_cycle.fast_step = false;
  EXPECT_EQ(CoreConfigHash(base), CoreConfigHash(per_cycle));
}

// ---------------------------------------------------------------------------
// Snapshot container validation.

// The bump mroutine keeps a counter in m7, mirrors it to MRAM data, and
// leaves the new value in t0 for the normal-mode caller (GPRs are shared
// across the mode transition).
constexpr const char* kMcode = R"(
    .mentry 1, bump
  bump:
    rmr t0, m7
    addi t0, t0, 1
    wmr m7, t0
    mst t0, 0(zero)
    mexit
)";

// Metal transitions, DRAM stores, a loop and console-free compute: enough
// machinery that a broken field in the snapshot shows up as a different run.
constexpr const char* kProgram = R"(
  _start:
    la t6, scratch
    li s11, 25
  loop:
    menter 1
    sw t0, 0(t6)
    lw t2, 0(t6)
    add s2, s2, t2
    addi s11, s11, -1
    bnez s11, loop
    andi a0, s2, 0x7F
    halt a0
  .data
  scratch:
    .word 0
)";

TEST(SnapshotTest, RejectsBadMagic) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<uint8_t> garbage = {'N', 'O', 'P', 'E', 0, 0, 0, 0, 1, 2, 3};
  const Status status = RestoreSnapshot(system.core(), garbage);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsVersionMismatch) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<uint8_t> image = SaveSnapshot(system.core());
  image[8] = static_cast<uint8_t>(kSnapshotVersion + 1);  // little-endian u32
  const Status status = RestoreSnapshot(system.core(), image);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsConfigMismatch) {
  MetalSystem saver;
  saver.AddMcode(kMcode);
  ASSERT_OK(saver.LoadProgramSource(kProgram));
  ASSERT_OK(saver.Boot());
  const std::vector<uint8_t> image = SaveSnapshot(saver.core());

  CoreConfig other_config;
  other_config.fast_transition = false;
  MetalSystem other(other_config);
  other.AddMcode(kMcode);
  ASSERT_OK(other.LoadProgramSource(kProgram));
  ASSERT_OK(other.Boot());
  const Status status = RestoreSnapshot(other.core(), image);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("CoreConfig"), std::string::npos);
}

TEST(SnapshotTest, MetaReportsCycleAndVersion) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  system.core().Run(37);
  const std::vector<uint8_t> image = SaveSnapshot(system.core());
  const auto meta = ReadSnapshotMeta(image);
  ASSERT_OK(meta.status());
  EXPECT_EQ(meta->version, kSnapshotVersion);
  EXPECT_EQ(meta->cycle, 37u);
  EXPECT_EQ(meta->config_hash, CoreConfigHash(system.core().config()));
}

TEST(SnapshotTest, ExtraSectionsRoundTrip) {
  MetalSystem system;
  system.AddMcode(kMcode);
  ASSERT_OK(system.LoadProgramSource(kProgram));
  ASSERT_OK(system.Boot());
  std::vector<SnapshotSection> extras = {{"custom", {9, 8, 7}}};
  const std::vector<uint8_t> image = SaveSnapshot(system.core(), extras);
  std::vector<SnapshotSection> restored_extras;
  ASSERT_OK(RestoreSnapshot(system.core(), image, &restored_extras));
  ASSERT_EQ(restored_extras.size(), 1u);
  EXPECT_EQ(restored_extras[0].name, "custom");
  EXPECT_EQ(restored_extras[0].payload, (std::vector<uint8_t>{9, 8, 7}));
}

// ---------------------------------------------------------------------------
// The round-trip property.

struct Retire {
  uint64_t cycle;
  uint32_t pc;
  uint32_t raw;
  bool operator==(const Retire& other) const {
    return cycle == other.cycle && pc == other.pc && raw == other.raw;
  }
};

void CollectRetires(Core& core, std::vector<Retire>& out) {
  core.SetRetireTrace([&out](const Core::RetireEvent& event) {
    out.push_back({event.cycle, event.pc, event.raw});
  });
}

// Snapshot the reference machine at `snap_cycle`, restore into a fresh
// machine (built with `restore_config`, which may differ in the host-tier
// knobs), run both to completion: the restored machine must retire the same
// instruction stream (absolute cycles included) and end in the same state.
void CheckRoundTripAtCycle(const CoreConfig& config, uint64_t snap_cycle,
                           const CoreConfig& restore_config) {
  MetalSystem reference(config);
  reference.AddMcode(kMcode);
  ASSERT_OK(reference.LoadProgramSource(kProgram));
  ASSERT_OK(reference.Boot());
  reference.core().Run(snap_cycle);
  ASSERT_FALSE(reference.core().halted()) << "snap cycle beyond program end";
  const std::vector<uint8_t> image = SaveSnapshot(reference.core());

  MetalSystem restored(restore_config);
  restored.AddMcode(kMcode);
  ASSERT_OK(restored.LoadProgramSource(kProgram));
  ASSERT_OK(restored.Boot());
  ASSERT_OK(RestoreSnapshot(restored.core(), image));
  EXPECT_EQ(restored.core().cycle(), snap_cycle);
  EXPECT_EQ(restored.core().StateDigest(true), reference.core().StateDigest(true));

  std::vector<Retire> ref_retires;
  std::vector<Retire> res_retires;
  CollectRetires(reference.core(), ref_retires);
  CollectRetires(restored.core(), res_retires);
  const RunResult ref_result = reference.core().Run(1'000'000);
  const RunResult res_result = restored.core().Run(1'000'000);

  ASSERT_EQ(ref_result.reason, RunResult::Reason::kHalted) << ref_result.fatal_message;
  EXPECT_EQ(res_result.reason, ref_result.reason);
  EXPECT_EQ(res_result.exit_code, ref_result.exit_code);
  EXPECT_EQ(res_result.instret, ref_result.instret);
  EXPECT_EQ(restored.core().cycle(), reference.core().cycle());
  EXPECT_EQ(res_retires, ref_retires);
  EXPECT_EQ(restored.core().StateDigest(true), reference.core().StateDigest(true));
  EXPECT_EQ(restored.core().console().output(), reference.core().console().output());
}

TEST(SnapshotRoundTripTest, ResumesBitIdenticallyAtRandomCycles) {
  // Property test: seeded-random snapshot points across the run, under both
  // the default config and DRAM-resident mroutines, and into a machine
  // stepping per cycle (host-tier state never travels).
  Rng rng(0xC0FFEE);
  CoreConfig dram;
  dram.mroutine_storage = MroutineStorage::kDramCached;
  CoreConfig bare;
  bare.fast_step = false;
  for (int i = 0; i < 6; ++i) {
    const uint64_t snap_cycle = rng.Range(1, 200);
    SCOPED_TRACE("snap cycle " + std::to_string(snap_cycle));
    CheckRoundTripAtCycle(CoreConfig{}, snap_cycle, CoreConfig{});
    CheckRoundTripAtCycle(dram, snap_cycle, dram);
    CheckRoundTripAtCycle(CoreConfig{}, snap_cycle, bare);
  }
}

TEST(SnapshotRoundTripTest, SparseDramPagesSurvive) {
  MetalSystem system;
  ASSERT_OK(system.LoadProgramSource(R"(
    _start:
      li t0, 0x00300000
      li t1, 0x5AFE5AFE
      sw t1, 0(t0)
      li t0, 0x00000100
      sw t1, 0(t0)
      halt zero
  )"));
  MustHalt(system, 0);
  const std::vector<uint8_t> image = SaveSnapshot(system.core());

  MetalSystem restored;
  ASSERT_OK(restored.LoadProgramSource("_start:\n  halt zero\n"));
  ASSERT_OK(restored.Boot());
  ASSERT_OK(RestoreSnapshot(restored.core(), image));
  EXPECT_EQ(restored.core().StateDigest(true), system.core().StateDigest(true));
}

// ---------------------------------------------------------------------------
// DRAM page records: PhysicalMemory::RestoreState accepts exactly what
// SaveState writes — ascending page indices, each blob the page's length —
// so a restored image always re-serializes to itself.

constexpr uint32_t kPage = PhysicalMemory::kPageSize;

using PageRecord = std::pair<uint32_t, std::vector<uint8_t>>;

// A hand-built DRAM section of a `size`-byte memory: the header, then
// `records` in the given order, under a live-page count of `live_pages`.
std::vector<uint8_t> DramSection(uint32_t size, const std::vector<PageRecord>& records,
                                 uint32_t live_pages) {
  SnapWriter w;
  w.U32(size);
  w.U64(7);  // write generation
  w.U32(kPage);
  w.U32(live_pages);
  for (const auto& [page, bytes] : records) {
    w.U32(page);
    w.Bytes(bytes);
  }
  return w.TakeBytes();
}

std::vector<uint8_t> DramSection(uint32_t size, const std::vector<PageRecord>& records) {
  return DramSection(size, records, static_cast<uint32_t>(records.size()));
}

Status RestoreDram(PhysicalMemory& mem, const std::vector<uint8_t>& section) {
  SnapReader r(section);
  return mem.RestoreState(r);
}

std::vector<uint8_t> SaveDram(const PhysicalMemory& mem) {
  SnapWriter w;
  mem.SaveState(w);
  return w.TakeBytes();
}

TEST(DramRecordTest, BlobMustBeExactlyThePageLength) {
  constexpr uint32_t kSize = 3 * kPage + 100;  // three full pages and a tail
  const std::vector<uint8_t> full(kPage, 0xAB);
  const std::vector<uint8_t> tail(100, 0xCD);
  PhysicalMemory mem(kSize);
  // Positive control: full pages and an exact tail re-serialize to themselves.
  const std::vector<uint8_t> good = DramSection(kSize, {{0, full}, {3, tail}});
  ASSERT_OK(RestoreDram(mem, good));
  EXPECT_EQ(SaveDram(mem), good);
  EXPECT_EQ(mem.Read8(3 * kPage + 99), 0xCD);

  // Longer than a page: the blob would spill into page 1.
  std::vector<uint8_t> spill(kPage + 1, 0xAB);
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{0, spill}})).code(),
            ErrorCode::kInvalidArgument);
  // Shorter than a full page.
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{1, std::vector<uint8_t>(16, 1)}})).code(),
            ErrorCode::kInvalidArgument);
  // A tail page serialized as a full page, and one cut short.
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{3, full}})).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{3, std::vector<uint8_t>(99, 1)}})).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DramRecordTest, PageIndicesMustBeStrictlyAscending) {
  constexpr uint32_t kSize = 4 * kPage;
  const std::vector<uint8_t> a(kPage, 0x11);
  const std::vector<uint8_t> b(kPage, 0x22);
  PhysicalMemory mem(kSize);
  const std::vector<uint8_t> good = DramSection(kSize, {{1, a}, {2, b}});
  ASSERT_OK(RestoreDram(mem, good));
  EXPECT_EQ(SaveDram(mem), good);

  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{1, a}, {1, b}})).code(),
            ErrorCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{2, b}, {1, a}})).code(),
            ErrorCode::kInvalidArgument);  // out of order
  EXPECT_EQ(RestoreDram(mem, DramSection(kSize, {{4, a}})).code(),
            ErrorCode::kInvalidArgument);  // past the last page
}

TEST(DramRecordTest, LivePageCountMustNotExceedPageCount) {
  constexpr uint32_t kSize = 2 * kPage;
  PhysicalMemory mem(kSize);
  ASSERT_TRUE(mem.Write32(0, 0x600DF00D));
  // Three records of a two-page memory: rejected from the header alone,
  // before the restore clears anything.
  const Status status = RestoreDram(
      mem, DramSection(kSize,
                       {{0, std::vector<uint8_t>(kPage, 1)}, {1, std::vector<uint8_t>(kPage, 2)}},
                       /*live_pages=*/3));
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("live pages"), std::string::npos) << status.message();
  EXPECT_EQ(mem.Read32(0), 0x600DF00Du);
}

// A snapshot container (snapshot.h) holding `payload` as `core`'s state.
std::vector<uint8_t> SnapshotOfCoreState(const Core& core, const std::vector<uint8_t>& payload) {
  SnapWriter w;
  for (const char c : std::string("MSIMSNAP")) {
    w.U8(static_cast<uint8_t>(c));
  }
  w.U32(kSnapshotVersion);
  w.U64(CoreConfigHash(core.config()));
  w.U64(core.cycle());
  w.U32(1);
  w.Str("core");
  w.Bytes(payload);
  return w.TakeBytes();
}

// A snapshot container around `core`'s state, with the DRAM section
// replaced by `dram`.
std::vector<uint8_t> SnapshotWithDram(const Core& core, const std::vector<uint8_t>& dram) {
  SnapWriter state;
  core.SaveState(state, /*include_dram=*/false);
  std::vector<uint8_t> payload = state.TakeBytes();
  payload.back() = 1;  // the include_dram flag, now followed by `dram`
  payload.insert(payload.end(), dram.begin(), dram.end());
  return SnapshotOfCoreState(core, payload);
}

// msim run --restore: a malformed DRAM page record is a bad input file, a
// usage error (exit 2).
TEST(DramRecordTest, CliRestoreOfMalformedPageExitsUsage) {
  const std::string source = "_start:\n  li a0, 0x100\n  sw a0, 0(a0)\n  halt zero\n";
  const std::string program = testing::TempDir() + "/dram_records.s";
  {
    std::ofstream out(program);
    out << source;
  }
  MetalSystem system;  // msim run's default machine
  ASSERT_OK(system.LoadProgramSource(source));
  ASSERT_OK(system.Boot());
  const uint32_t size = system.core().config().dram_size;
  SnapWriter dram;
  system.core().bus().dram().SaveState(dram);
  const std::vector<uint8_t> good_image = SnapshotWithDram(system.core(), dram.bytes());
  ASSERT_EQ(good_image, SaveSnapshot(system.core()));  // the container is built right

  const std::vector<uint8_t> page(kPage, 0x5A);
  const std::vector<uint8_t> bad_images[] = {
      SnapshotWithDram(system.core(), DramSection(size, {{0, std::vector<uint8_t>(kPage + 4)}})),
      SnapshotWithDram(system.core(), DramSection(size, {{2, page}, {1, page}})),
      SnapshotWithDram(system.core(), DramSection(size, {}, size / kPage + 1)),
  };
  const std::string run = std::string(MSIM_CLI_PATH) + " run " + program + " --restore ";
  const std::string good = testing::TempDir() + "/dram_records_good.msnap";
  ASSERT_OK(WriteFileBytes(good, good_image));
  EXPECT_EQ(RunShell(run + good + " >/dev/null 2>&1"), kExitOk);
  for (size_t i = 0; i < std::size(bad_images); ++i) {
    const std::string bad =
        testing::TempDir() + "/dram_records_bad" + std::to_string(i) + ".msnap";
    ASSERT_OK(WriteFileBytes(bad, bad_images[i]));
    EXPECT_EQ(RunShell(run + bad + " >/dev/null 2>&1"), kExitUsage) << "bad image " << i;
  }
}

// msim run --restore: an index the pipeline or the TLB uses unchecked
// (the ID/EX replacement-chain length, the EX/MEM instruction kind, the TLB
// round-robin victim) is rejected when out of range, a usage error (exit 2)
// rather than an out-of-bounds access on the next step.
TEST(SnapshotTest, RejectsOutOfRangeIndices) {
  const std::string source = "_start:\n  li a0, 7\n  halt zero\n";
  const std::string program = testing::TempDir() + "/index_fields.s";
  {
    std::ofstream out(program);
    out << source;
  }
  MetalSystem system;  // msim run's default machine
  ASSERT_OK(system.LoadProgramSource(source));
  ASSERT_OK(system.Boot());
  const Core& core = system.core();
  SnapWriter state;
  core.SaveState(state);
  const std::vector<uint8_t> payload = state.TakeBytes();
  ASSERT_EQ(SnapshotOfCoreState(core, payload), SaveSnapshot(core));

  // Byte offsets in Core::SaveState's stream: 32 GPRs, the cycle, the fetch
  // unit and its two slots, then the ID/EX latch up to chain_len; after the
  // chain, the rest of ID/EX and the EX/MEM latch up to kind.
  constexpr size_t kFetchSlot = 1 + 4 + 4 + 1 + 4 + 4;
  constexpr size_t kChainLen =
      32 * 4 + 8 + (4 + 1 + 1 + 4) + 2 * kFetchSlot + (1 + 4 + 4 + 1 + 1 + 1 + 4);
  constexpr size_t kChainStep = 1 + 1 + 4 + 4;
  constexpr size_t kExMemKind = kChainLen + 1 + 4 * kChainStep + (1 + 1 + 4 + 4) + (1 + 4);
  // The stream ends with the TLB (capacity, entries, victim, ...) and the
  // components after it; the victim follows the capacity and the entries.
  Core& mutable_core = system.core();
  SnapWriter tail;
  mutable_core.mmu().tlb().SaveState(tail);
  mutable_core.icache().SaveState(tail);
  mutable_core.dcache().SaveState(tail);
  mutable_core.intc().SaveState(tail);
  mutable_core.timer().SaveState(tail);
  mutable_core.nic().SaveState(tail);
  mutable_core.console().SaveState(tail);
  tail.Bool(true);
  mutable_core.bus().dram().SaveState(tail);
  ASSERT_LT(tail.bytes().size(), payload.size());
  const size_t tlb_at = payload.size() - tail.bytes().size();
  ASSERT_TRUE(std::equal(tail.bytes().begin(), tail.bytes().end(), payload.begin() + tlb_at));
  const uint32_t capacity = mutable_core.mmu().tlb().capacity();
  const size_t victim = tlb_at + 4 + capacity * (1 + 4 + 2 + 4);

  const struct {
    const char* field;
    size_t offset;
    size_t width;
    uint32_t value;
  } kPatches[] = {
      {"chain length", kChainLen, 1, 5},
      {"instruction kind", kExMemKind, 4, static_cast<uint32_t>(InstrKind::kCount)},
      {"victim index", victim, 4, capacity},
  };
  const std::string run = std::string(MSIM_CLI_PATH) + " run " + program + " --restore ";
  for (const auto& patch : kPatches) {
    SCOPED_TRACE(patch.field);
    std::vector<uint8_t> bad = payload;
    for (size_t i = 0; i < patch.width; ++i) {
      bad[patch.offset + i] = static_cast<uint8_t>(patch.value >> (8 * i));
    }
    const std::vector<uint8_t> image = SnapshotOfCoreState(core, bad);
    Core fresh(core.config());
    const Status status = RestoreSnapshot(fresh, image);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(status.message().find(patch.field), std::string::npos) << status.message();
    const std::string path = testing::TempDir() + "/index_fields_bad.msnap";
    ASSERT_OK(WriteFileBytes(path, image));
    EXPECT_EQ(RunShell(run + path + " >/dev/null 2>&1"), kExitUsage);
  }
  // Positive control: the unpatched image restores and runs.
  const std::string good = testing::TempDir() + "/index_fields_good.msnap";
  ASSERT_OK(WriteFileBytes(good, SnapshotOfCoreState(core, payload)));
  EXPECT_EQ(RunShell(run + good + " >/dev/null 2>&1"), kExitOk);
}

// ---------------------------------------------------------------------------
// Replay log.

TEST(ReplayLogTest, SaveRestoreRoundTripsEvents) {
  MetalSystem system;
  ASSERT_OK(system.LoadProgramSource("_start:\n  halt zero\n"));
  ASSERT_OK(system.Boot());
  ReplayLog log;
  log.RecordNicPacket(system, 500, {0xAA, 0xBB});
  log.RecordNicPacket(system, 900, {0x01});

  SnapWriter w;
  log.Save(w);
  ReplayLog loaded;
  SnapReader r(w.bytes());
  ASSERT_OK(loaded.Restore(r));
  ASSERT_EQ(loaded.events().size(), 2u);
  EXPECT_EQ(loaded.events()[0].cycle, 500u);
  EXPECT_EQ(loaded.events()[0].payload, (std::vector<uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(loaded.events()[1].cycle, 900u);
}

TEST(ReplayLogTest, ReplayReproducesRecordedNicRun) {
  // The recorded run: packets perturb NIC state while the program spins.
  constexpr const char* kSpin = R"(
    _start:
      li s11, 300
    loop:
      addi s11, s11, -1
      bnez s11, loop
      halt zero
  )";
  MetalSystem recorded;
  ASSERT_OK(recorded.LoadProgramSource(kSpin));
  ASSERT_OK(recorded.Boot());
  ReplayLog log;
  log.RecordNicPacket(recorded, 100, {1, 2, 3, 4});
  log.RecordNicPacket(recorded, 400, {5, 6});
  const RunResult want = recorded.Run(10'000);
  ASSERT_EQ(want.reason, RunResult::Reason::kHalted);

  MetalSystem replayed;
  ASSERT_OK(replayed.LoadProgramSource(kSpin));
  const auto got = log.Replay(replayed, 10'000);
  ASSERT_OK(got.status());
  EXPECT_EQ(got->reason, want.reason);
  EXPECT_EQ(got->instret, want.instret);
  EXPECT_EQ(replayed.core().cycle(), recorded.core().cycle());
  EXPECT_EQ(replayed.core().StateDigest(true), recorded.core().StateDigest(true));
}

}  // namespace
}  // namespace msim
