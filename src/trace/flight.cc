#include "trace/flight.h"

#include <string>

#include "trace/json.h"

namespace msim {

bool FlightRecorder::Records(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRetire:
    case TraceEventKind::kMenter:
    case TraceEventKind::kMexit:
    case TraceEventKind::kChainFold:
    case TraceEventKind::kTrap:
    case TraceEventKind::kInterrupt:
    case TraceEventKind::kIntercept:
    case TraceEventKind::kFaultInject:
    case TraceEventKind::kMachineCheck:
      return true;
    default:
      return false;
  }
}

void FlightRecorder::AppendJson(JsonWriter& json) const {
  json.Field("capacity", static_cast<uint64_t>(capacity()));
  json.Field("total", total());
  json.Field("dropped", dropped());
  json.BeginArray("events");
  for (const TraceEvent& event : Events()) {
    json.BeginObject();
    json.Field("cycle", event.cycle);
    json.Field("kind", TraceEventKindName(event.kind));
    json.Field("pc", event.pc);
    json.Field("arg0", event.arg0);
    json.Field("arg1", event.arg1);
    json.Field("metal", event.metal);
    json.EndObject();
  }
  json.EndArray();
}

Status FlightRecorder::RestoreState(SnapReader& r) {
  const Status status = ring_.RestoreState(r, kMaxCapacity);
  if (!status.ok()) {
    return InvalidArgument("flight recorder: " + status.message());
  }
  return status;
}

}  // namespace msim
