// FlightRecorder: event filtering, drop-oldest ring behaviour, JSON export,
// checkpoint/restore byte-identity and crash-dump embedding.
#include "trace/flight.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/exit_codes.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"

namespace msim {
namespace {

TraceEvent Event(TraceEventKind kind, uint64_t cycle, uint32_t pc = 0) {
  TraceEvent event;
  event.kind = kind;
  event.cycle = cycle;
  event.pc = pc;
  return event;
}

TEST(FlightRecorderTest, RecordsArchitecturalEventsOnly) {
  // Retires and transitions matter for post-mortem reconstruction;
  // micro-architectural noise (cache misses, stalls) does not.
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kRetire));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kMenter));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kMexit));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kTrap));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kInterrupt));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kFaultInject));
  EXPECT_TRUE(FlightRecorder::Records(TraceEventKind::kMachineCheck));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kICacheMiss));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kDCacheMiss));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kTlbMiss));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kStall));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kFlush));
  EXPECT_FALSE(FlightRecorder::Records(TraceEventKind::kMramAccess));

  FlightRecorder flight(8);
  flight.OnEvent(Event(TraceEventKind::kRetire, 1));
  flight.OnEvent(Event(TraceEventKind::kStall, 2));
  flight.OnEvent(Event(TraceEventKind::kICacheMiss, 3));
  EXPECT_EQ(flight.total(), 1u);
  ASSERT_EQ(flight.Events().size(), 1u);
  EXPECT_EQ(flight.Events()[0].kind, TraceEventKind::kRetire);
}

TEST(FlightRecorderTest, RingKeepsMostRecentInOrder) {
  FlightRecorder flight(4);
  for (uint64_t c = 1; c <= 10; ++c) {
    flight.OnEvent(Event(TraceEventKind::kRetire, c, static_cast<uint32_t>(c * 4)));
  }
  EXPECT_EQ(flight.total(), 10u);
  EXPECT_EQ(flight.dropped(), 6u);
  const std::vector<TraceEvent> events = flight.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].cycle, 7 + i);  // oldest-first: cycles 7..10
  }
}

TEST(FlightRecorderTest, AppendJsonIsValid) {
  FlightRecorder flight(4);
  flight.OnEvent(Event(TraceEventKind::kTrap, 12, 0x2000));
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  flight.AppendJson(json);
  json.EndObject();
  EXPECT_TRUE(JsonLooksValid(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"kind\":\"trap\""), std::string::npos);
  EXPECT_NE(out.str().find("\"capacity\":4"), std::string::npos);
}

TEST(FlightRecorderTest, SaveRestoreIsByteIdentical) {
  FlightRecorder flight(4);
  for (uint64_t c = 1; c <= 7; ++c) {
    flight.OnEvent(Event(TraceEventKind::kRetire, c));
  }
  SnapWriter w;
  flight.SaveState(w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  FlightRecorder restored(1);  // capacity comes from the snapshot
  SnapReader r(bytes);
  ASSERT_OK(restored.RestoreState(r));

  EXPECT_EQ(restored.total(), flight.total());
  EXPECT_EQ(restored.dropped(), flight.dropped());
  const auto dump = [](const FlightRecorder& f) {
    std::ostringstream out;
    JsonWriter json(out);
    json.BeginObject();
    f.AppendJson(json);
    json.EndObject();
    return out.str();
  };
  EXPECT_EQ(dump(restored), dump(flight));

  // The restored ring keeps rolling correctly.
  restored.OnEvent(Event(TraceEventKind::kRetire, 8));
  const std::vector<TraceEvent> events = restored.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().cycle, 5u);
  EXPECT_EQ(events.back().cycle, 8u);
}

// Flight sections a restore must reject: capacity 0, a capacity above
// kMaxCapacity (which a plain RingBufferSink would accept), and a count
// above the capacity.
std::vector<std::vector<uint8_t>> ImplausibleFlightSections() {
  std::vector<std::vector<uint8_t>> sections;
  for (const auto& [capacity, count] :
       {std::pair<uint64_t, uint64_t>{0, 0}, {FlightRecorder::kMaxCapacity + 1, 0}, {2, 5}}) {
    SnapWriter w;
    w.U64(capacity);
    w.U64(9);  // total
    w.U64(0);  // dropped
    w.U64(count);
    sections.push_back(w.TakeBytes());
  }
  return sections;
}

TEST(FlightRecorderTest, RestoreRejectsImplausibleState) {
  for (const std::vector<uint8_t>& bytes : ImplausibleFlightSections()) {
    FlightRecorder flight;
    SnapReader r(bytes);
    EXPECT_FALSE(flight.RestoreState(r).ok());
  }
  // The over-capacity section is well formed for a trace ring.
  const std::vector<uint8_t> over_capacity = ImplausibleFlightSections()[1];
  RingBufferSink ring;
  SnapReader r(over_capacity);
  EXPECT_OK(ring.RestoreState(r));
}

TEST(FlightRecorderTest, TruncatedRestoreReadsNoMoreEventsThanItCarries) {
  // A section that claims a full ring but carries one event: the restore
  // fails at the first short read instead of filling the claimed count.
  SnapWriter w;
  w.U64(FlightRecorder::kMaxCapacity);  // capacity
  w.U64(FlightRecorder::kMaxCapacity);  // total
  w.U64(0);                             // dropped
  w.U64(FlightRecorder::kMaxCapacity);  // count
  w.U8(static_cast<uint8_t>(TraceEventKind::kRetire));
  w.Bool(false);
  w.U64(1);
  w.U32(0);
  w.U32(0);
  w.U32(0);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  FlightRecorder flight;
  SnapReader r(bytes);
  EXPECT_FALSE(flight.RestoreState(r).ok());
  EXPECT_LE(flight.Events().size(), 2u);
}

// msim run --restore: an implausible flight section is a bad input file, a
// usage error (exit 2).
TEST(FlightRecorderTest, CliRestoreOfImplausibleFlightSectionExitsUsage) {
  const std::string source = "_start:\n  halt zero\n";
  const std::string program = testing::TempDir() + "/flight_restore.s";
  {
    std::ofstream out(program);
    out << source;
  }
  MetalSystem system;  // msim run's default machine
  ASSERT_OK(system.LoadProgramSource(source));
  ASSERT_OK(system.Boot());
  const std::string run = std::string(MSIM_CLI_PATH) + " run " + program + " --restore ";
  FlightRecorder flight;
  SnapWriter good_section;
  flight.SaveState(good_section);
  const std::string good = testing::TempDir() + "/flight_restore_good.msnap";
  ASSERT_OK(SaveSnapshotFile(system.core(), good, {{"flight", good_section.TakeBytes()}}));
  EXPECT_EQ(RunShell(run + good + " >/dev/null 2>&1"), kExitOk);
  const std::vector<std::vector<uint8_t>> sections = ImplausibleFlightSections();
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::string bad =
        testing::TempDir() + "/flight_restore_bad" + std::to_string(i) + ".msnap";
    ASSERT_OK(SaveSnapshotFile(system.core(), bad, {{"flight", sections[i]}}));
    EXPECT_EQ(RunShell(run + bad + " >/dev/null 2>&1"), kExitUsage) << "bad section " << i;
  }
}

}  // namespace
}  // namespace msim
