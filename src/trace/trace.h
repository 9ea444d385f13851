// Structured event tracing for the simulator.
//
// Components emit typed TraceEvents through a Tracer — a thin, non-owning
// emitter that stamps the current simulated cycle and forwards to an attached
// TraceSink. With no sink attached, emission is a single branch (the same
// zero-cost-when-unused contract as Core::RetireTrace). Sinks:
//   * RingBufferSink keeps the most recent N events (drop-oldest),
//   * TeeSink fans one event stream out to several sinks,
//   * MroutineProfiler (trace/profiler.h) aggregates instead of recording.
// ExportChromeTrace writes a Chrome trace_event JSON file (1 cycle = 1 us)
// that loads in Perfetto / chrome://tracing: Metal-mode residency appears as
// duration slices, everything else as instant events.
#ifndef MSIM_TRACE_TRACE_H_
#define MSIM_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "support/result.h"

namespace msim {

class SnapWriter;
class SnapReader;

enum class TraceEventKind : uint8_t {
  kRetire = 0,     // pc, arg0 = raw instruction word
  kMenter,         // pc = menter pc, arg0 = entry, arg1 = handler address
  kMexit,          // pc = mexit pc, arg0 = resume address, arg1 = exit flags
                   //   (bit 0: Metal mode retained — MRAM resume; bit 1:
                   //    machine-check recovery exit, i.e. scrub-and-retry)
  kChainFold,      // pc, arg0 = enters, arg1 = exits folded into one op
  kTrap,           // pc = epc, arg0 = cause, arg1 = entry
  kInterrupt,      // pc = epc, arg0 = mcause (top bit set), arg1 = entry
  kIntercept,      // pc = intercepted pc, arg0 = raw word, arg1 = entry
  kICacheMiss,     // pc = paddr
  kDCacheMiss,     // pc = paddr
  kTlbMiss,        // pc = vaddr, arg0 = access type (AccessType)
  kMramAccess,     // pc = address/offset, arg0: 0 = fetch, 1 = load, 2 = store
  kStall,          // pc, arg0 = stall kind (0 = load-use)
  kFlush,          // pc = redirect target
  kFaultInject,    // pc = location, arg0 = FaultTarget, arg1 = xor mask
  kMachineCheck,   // pc = epc, arg0 = McheckKind, arg1 = info word
  kCount,
};

// Stable lowercase name for exporters ("retire", "menter", ...).
const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRetire;
  bool metal = false;  // emitted while the committed mode was Metal
  uint64_t cycle = 0;
  uint32_t pc = 0;     // primary address (pc or memory address)
  uint32_t arg0 = 0;   // kind-specific, see TraceEventKind
  uint32_t arg1 = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Bounded recorder: keeps the most recent `capacity` events in order.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(size_t capacity = 1 << 20);

  void OnEvent(const TraceEvent& event) override;

  // Events in emission order (oldest first).
  std::vector<TraceEvent> Events() const;
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t total() const { return total_; }
  void Clear();

  // Checkpoint/restore (src/snap): the retained window rides in snapshots so
  // a restored run's crash-dump trace matches the straight run's byte for
  // byte even when part of the window predates the restore point. Restore
  // rejects a capacity of 0 or above `max_capacity`, and a count above the
  // capacity.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r, uint64_t max_capacity = uint64_t{1} << 24);

 private:
  std::vector<TraceEvent> buffer_;
  size_t capacity_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
};

// Forwards every event to each attached sink (non-owning).
class TeeSink : public TraceSink {
 public:
  void Add(TraceSink* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
    }
  }
  void OnEvent(const TraceEvent& event) override {
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// The emitter embedded in instrumented components. Non-owning: the sink and
// the cycle counter belong to the caller (Core wires both). Components hold a
// Tracer* and call Emit unconditionally; a null sink makes it a no-op.
class Tracer {
 public:
  void Attach(TraceSink* sink, const uint64_t* cycle) {
    sink_ = sink;
    cycle_ = cycle;
  }
  void Detach() { sink_ = nullptr; }
  bool enabled() const { return sink_ != nullptr; }

  // Only the null-sink test is inline: building the event and calling the
  // sink stay out of the instrumented hot loops (and their registers).
  void Emit(TraceEventKind kind, uint32_t pc, uint32_t arg0 = 0, uint32_t arg1 = 0,
            bool metal = false) {
    if (sink_ != nullptr) [[unlikely]] {
      EmitToSink(kind, pc, arg0, arg1, metal);
    }
  }

 private:
  [[gnu::noinline, gnu::cold]] void EmitToSink(TraceEventKind kind, uint32_t pc, uint32_t arg0,
                                               uint32_t arg1, bool metal);

  TraceSink* sink_ = nullptr;
  const uint64_t* cycle_ = nullptr;
};

// Writes Chrome trace_event JSON ({"traceEvents": [...]}): duration slices
// ("B"/"E") for Metal-mode residency opened by menter/trap/interrupt events
// and closed by mexit (unbalanced slices are closed at the last cycle), and
// instant events for everything else. Timestamps are simulated cycles
// interpreted as microseconds. Events must be in emission (cycle) order.
void ExportChromeTrace(const std::vector<TraceEvent>& events, std::ostream& out);

}  // namespace msim

#endif  // MSIM_TRACE_TRACE_H_
