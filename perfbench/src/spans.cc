#include <cinttypes>
#include <cstdio>

#include "bench.h"

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  SpanRecord record;
  record.name = name;
  record.job = job_;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(record);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id, uint64_t work) {
  if (id < 0) {
    return;
  }
  SpanRecord& record = spans_[static_cast<size_t>(id)];
  record.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  record.work = work;
  // Spans close in LIFO order (they are scoped), so `id` is the innermost.
  open_.pop_back();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"job\": %" PRIu64
                 ", \"parent\": %d, \"work\": %" PRIu64 "}}",
                 i == 0 ? "" : ",\n", s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 i, s.job, s.parent, s.work);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
