#include "trace/trace.h"

#include <algorithm>

#include "cpu/trap.h"
#include "snap/snapstream.h"
#include "support/strings.h"
#include "trace/json.h"

namespace msim {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRetire:
      return "retire";
    case TraceEventKind::kMenter:
      return "menter";
    case TraceEventKind::kMexit:
      return "mexit";
    case TraceEventKind::kChainFold:
      return "chain_fold";
    case TraceEventKind::kTrap:
      return "trap";
    case TraceEventKind::kInterrupt:
      return "interrupt";
    case TraceEventKind::kIntercept:
      return "intercept";
    case TraceEventKind::kICacheMiss:
      return "icache_miss";
    case TraceEventKind::kDCacheMiss:
      return "dcache_miss";
    case TraceEventKind::kTlbMiss:
      return "tlb_miss";
    case TraceEventKind::kMramAccess:
      return "mram_access";
    case TraceEventKind::kStall:
      return "stall";
    case TraceEventKind::kFlush:
      return "flush";
    case TraceEventKind::kFaultInject:
      return "fault_inject";
    case TraceEventKind::kMachineCheck:
      return "machine_check";
    case TraceEventKind::kCount:
      break;
  }
  return "unknown";
}

void Tracer::EmitToSink(TraceEventKind kind, uint32_t pc, uint32_t arg0, uint32_t arg1,
                        bool metal) {
  TraceEvent event;
  event.kind = kind;
  event.metal = metal;
  event.cycle = cycle_ != nullptr ? *cycle_ : 0;
  event.pc = pc;
  event.arg0 = arg0;
  event.arg1 = arg1;
  sink_->OnEvent(event);
}

RingBufferSink::RingBufferSink(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.reserve(std::min<size_t>(capacity_, 4096));
}

void RingBufferSink::OnEvent(const TraceEvent& event) {
  ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> RingBufferSink::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

void RingBufferSink::Clear() {
  buffer_.clear();
  next_ = 0;
  total_ = 0;
  dropped_ = 0;
}

void RingBufferSink::SaveState(SnapWriter& w) const {
  w.U64(static_cast<uint64_t>(capacity_));
  w.U64(total_);
  w.U64(dropped_);
  const std::vector<TraceEvent> events = Events();
  w.U64(static_cast<uint64_t>(events.size()));
  for (const TraceEvent& event : events) {
    w.U8(static_cast<uint8_t>(event.kind));
    w.Bool(event.metal);
    w.U64(event.cycle);
    w.U32(event.pc);
    w.U32(event.arg0);
    w.U32(event.arg1);
  }
}

Status RingBufferSink::RestoreState(SnapReader& r, uint64_t max_capacity) {
  const uint64_t capacity = r.U64();
  if (capacity == 0 || capacity > max_capacity) {
    return InvalidArgument("trace ring snapshot: implausible capacity");
  }
  capacity_ = static_cast<size_t>(capacity);
  total_ = r.U64();
  dropped_ = r.U64();
  const uint64_t count = r.U64();
  if (count > capacity) {
    return InvalidArgument("trace ring snapshot: count exceeds capacity");
  }
  buffer_.clear();
  next_ = 0;
  // Stops at the first short read: a count the section's bytes cannot hold
  // allocates no more events than the section carries.
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    TraceEvent event;
    event.kind = static_cast<TraceEventKind>(r.U8() %
                                             static_cast<uint8_t>(TraceEventKind::kCount));
    event.metal = r.Bool();
    event.cycle = r.U64();
    event.pc = r.U32();
    event.arg0 = r.U32();
    event.arg1 = r.U32();
    buffer_.push_back(event);
  }
  return r.ToStatus("trace ring");
}

namespace {

// Display name for the slice opened by a mode-entering event.
std::string SliceName(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kMenter:
      return StrFormat("mroutine %u", event.arg0);
    case TraceEventKind::kTrap:
      return StrFormat("trap %s -> entry %u",
                       ExcCauseName(static_cast<ExcCause>(event.arg0)), event.arg1);
    case TraceEventKind::kInterrupt:
      return StrFormat("irq %u -> entry %u", event.arg0 & ~kInterruptCauseFlag, event.arg1);
    case TraceEventKind::kIntercept:
      return StrFormat("intercept -> entry %u", event.arg1);
    default:
      return TraceEventKindName(event.kind);
  }
}

void WriteCommon(JsonWriter& json, const char* name, const char* phase, uint64_t ts) {
  json.Field("name", name);
  json.Field("ph", phase);
  json.Field("ts", ts);
  json.Field("pid", 0);
  json.Field("tid", 0);
}

}  // namespace

void ExportChromeTrace(const std::vector<TraceEvent>& events, std::ostream& out) {
  JsonWriter json(out);
  json.BeginObject();
  json.BeginArray("traceEvents");

  // Name the single process/thread for the trace viewer.
  json.BeginObject();
  json.Field("name", "process_name");
  json.Field("ph", "M");
  json.Field("pid", 0);
  json.Field("tid", 0);
  json.BeginObject("args");
  json.Field("name", "msim");
  json.EndObject();
  json.EndObject();

  uint64_t last_cycle = 0;
  int open_slices = 0;
  for (const TraceEvent& event : events) {
    last_cycle = std::max(last_cycle, event.cycle);
    switch (event.kind) {
      case TraceEventKind::kMenter:
      case TraceEventKind::kTrap:
      case TraceEventKind::kInterrupt: {
        json.BeginObject();
        const std::string name = SliceName(event);
        WriteCommon(json, name.c_str(), "B", event.cycle);
        json.BeginObject("args");
        json.Field("pc", StrFormat("0x%08x", event.pc));
        if (event.kind == TraceEventKind::kMenter) {
          json.Field("entry", event.arg0);
          json.Field("handler", StrFormat("0x%08x", event.arg1));
        } else {
          json.Field("cause", event.arg0);
          json.Field("entry", event.arg1);
        }
        json.EndObject();
        json.EndObject();
        ++open_slices;
        break;
      }
      case TraceEventKind::kMexit: {
        if (open_slices == 0) {
          break;  // exit without a recorded enter (ring buffer wrapped)
        }
        json.BeginObject();
        WriteCommon(json, "mexit", "E", event.cycle);
        json.EndObject();
        --open_slices;
        break;
      }
      default: {
        json.BeginObject();
        WriteCommon(json, TraceEventKindName(event.kind), "i", event.cycle);
        json.Field("s", "t");
        json.BeginObject("args");
        json.Field("pc", StrFormat("0x%08x", event.pc));
        json.Field("arg0", event.arg0);
        json.Field("arg1", event.arg1);
        json.Field("metal", event.metal);
        json.EndObject();
        json.EndObject();
        break;
      }
    }
  }
  // Close any slice still open when tracing stopped (e.g. the simulation
  // halted inside an mroutine) so viewers do not drop it.
  for (; open_slices > 0; --open_slices) {
    json.BeginObject();
    WriteCommon(json, "end_of_trace", "E", last_cycle);
    json.EndObject();
  }
  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.EndObject();
}

}  // namespace msim
