// Flight recorder: a fixed-size, deterministic ring of the last K
// architecturally significant trace events.
//
// It is a filter (Records) in front of a RingBufferSink: where a plain ring
// records everything and is sized for offline export, the flight recorder
// keeps only retired instructions, Metal transitions and fault events, in a
// small bounded window — the "what led up to this" record embedded in crash
// dumps (src/fault) and snapshots (src/snap). The ring is part of the
// deterministic machine surface: SaveState/RestoreState serialize it fully
// (the ring's own codec), so a restored run's recorder — and every crash
// dump derived from it — is byte-identical to the straight run's.
#ifndef MSIM_TRACE_FLIGHT_H_
#define MSIM_TRACE_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/result.h"
#include "trace/trace.h"

namespace msim {

class JsonWriter;

class FlightRecorder : public TraceSink {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  // Largest capacity a snapshot may restore.
  static constexpr uint64_t kMaxCapacity = uint64_t{1} << 20;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity) : ring_(capacity) {}

  // True for the event kinds the recorder keeps: retires, transitions
  // (menter/mexit/chain folds), trap/interrupt/intercept deliveries, fault
  // injections and machine checks. Cache/TLB misses, stalls and flushes are
  // high-rate microarchitectural noise and are filtered out.
  static bool Records(TraceEventKind kind);

  void OnEvent(const TraceEvent& event) override {
    if (Records(event.kind)) {
      ring_.OnEvent(event);
    }
  }

  // Recorded events, oldest first.
  std::vector<TraceEvent> Events() const { return ring_.Events(); }
  size_t capacity() const { return ring_.capacity(); }
  uint64_t total() const { return ring_.total(); }      // events accepted
  uint64_t dropped() const { return ring_.dropped(); }  // accepted minus retained
  void Clear() { ring_.Clear(); }

  // Appends capacity/total/dropped and an "events" array to an open object.
  void AppendJson(JsonWriter& json) const;

  // Checkpoint/restore (src/snap): the full ring, in order.
  void SaveState(SnapWriter& w) const { ring_.SaveState(w); }
  Status RestoreState(SnapReader& r);

 private:
  RingBufferSink ring_;
};

}  // namespace msim

#endif  // MSIM_TRACE_FLIGHT_H_
