// Shared pieces of the msim benchmark program: the seeded input generator, the
// simulated-statistics fold, the in-memory span recorder and the workload
// interface the timed loop in main.cc drives.
#ifndef MSIM_PERFBENCH_BENCH_H_
#define MSIM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace msim {
class MetricRegistry;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

// splitmix64. The benchmark owns its input generator so that a change to the
// library's RNG cannot change the benchmark's inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next64() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }
  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next64() % bound; }

 private:
  uint64_t state_;
};

// Independent per-job seed stream derived from the workload seed.
inline uint64_t JobSeed(uint64_t seed, uint64_t job) {
  return InputRng(seed * 0x2545F4914F6CDD1Dull + job).Next64();
}

inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;
inline void FnvMix(uint64_t& h, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
}

// Simulated counters of one job, read from the core's MetricRegistry. These
// are results of the model, not host performance: host-only changes must
// leave every one of them unchanged.
struct SimCounters {
  uint64_t cycles = 0;
  uint64_t instret = 0;
  uint64_t metal_cycles = 0;
  uint64_t menters = 0;
  uint64_t intercepts = 0;
  uint64_t superblock_executions = 0;
  uint64_t superblock_instructions = 0;
  uint64_t mem_fast_hits = 0;
  uint64_t mem_slow_exits = 0;
  uint64_t icache_hits = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_hits = 0;
  uint64_t dcache_misses = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;

  void Add(const SimCounters& other);
};

SimCounters ReadCounters(const msim::MetricRegistry& registry);

// FNV fold of every counter (component, name, value) of the components that
// model hardware, in registration order.
uint64_t RegistryDigest(const msim::MetricRegistry& registry);

// One recorded span. Spans opened while job `j` runs carry job id j; set-up
// spans carry job id 0. `work` is a count measured at the same boundary
// (instructions retired for cpu.run, image bytes for snap.save).
struct SpanRecord {
  const char* name = "";
  uint64_t job = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t work = 0;
};

// In-memory span recorder. Disabled, Begin/End cost one branch and record
// nothing, so the untraced timed loop pays (almost) nothing for the spans.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_job(uint64_t job) { job_ = job; }

  int32_t Begin(const char* name);
  void End(int32_t id, uint64_t work = 0);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Writes every span as Chrome trace-event JSON (loadable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t job_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for the enclosing scope. Span names are "<layer>.<operation>".
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(id_, work_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(uint64_t work) { work_ = work; }

 private:
  SpanRecorder& recorder_;
  int32_t id_;
  uint64_t work_ = 0;
};

struct JobResult {
  std::string error;              // empty = every output check passed
  size_t slot = 0;                // position of the job in the workload's round
  bool round_end = false;         // the last job of the round
  uint64_t sim_instructions = 0;  // retired during the job (normal + Metal mode)
  uint64_t sim_cycles = 0;        // simulated during the job
  uint64_t digest = 0;            // fold of the job's simulated statistics
  SimCounters counters;           // per-layer ratios; summed over a round
  std::vector<double> checkpoint_save_ms;
  std::vector<double> checkpoint_restore_ms;
  uint64_t pages_touched = 0;  // measured in traced jobs only
};

// A workload is a fixed round of jobs that the timed loop repeats. The job in
// slot i of every round has identical inputs, so its digest must repeat
// exactly.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input of the timed jobs from the seed. Returns an error
  // message, or "" on success.
  virtual std::string Setup(SpanRecorder& spans) = 0;

  // Makes the next job the first of a round.
  virtual void Rewind() = 0;

  virtual JobResult RunNextJob(SpanRecorder& spans) = 0;

  // Checks a traced job against reference work done after it, outside the
  // job (the campaign's engine trial that a mirrored trial must reproduce).
  // Returns an error message, or "".
  virtual std::string CheckReference() { return ""; }

  // Checks over every job run (e.g. the campaign's outcome totals).
  virtual std::string Finish() { return ""; }

  // Recorded sim_digest of the first round for the default seed.
  virtual uint64_t expected_default_digest() const = 0;
};

inline constexpr uint64_t kDefaultSeed = 1;

std::unique_ptr<Workload> MakeCampaignWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeMetalPaperWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeNativeCkptWorkload(uint64_t seed);

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace perfbench

#endif  // MSIM_PERFBENCH_BENCH_H_
