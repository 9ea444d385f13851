// Fleet supervision overhead (docs/robustness.md "Fleet supervision").
//
// Three measurements against a real msim worker binary:
//   throughput    jobs/sec for a batch of short jobs across a worker pool —
//                 the supervisor's per-job cost (fork/exec, polling, report);
//   cold          one uninterrupted checkpointing job, the baseline;
//   crash-resume  the same job SIGKILLed by chaos injection after its first
//                 checkpoint, restarted from the newest checkpoint — the cost
//                 of a mid-run crash under checkpoint-restart retry.
//
// Guest-cycle fields are deterministic; wall_ms fields are host timing (this
// bench measures the supervisor itself, which only exists in wall time).
//
// usage: bench_fleet [--msim PATH] [--jobs N] [--workers N] [--json FILE]
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/manifest.h"
#include "fleet/scheduler.h"
#include "support/exit_codes.h"

using namespace msim;

namespace {

constexpr const char* kShortProgram = R"(
_start:
  li t0, 200
loop:
  addi t0, t0, -1
  bnez t0, loop
  halt t0
)";

// ~1.8M cycles: long enough that checkpoints and a mid-run crash matter.
constexpr const char* kLongProgram = R"(
_start:
  li t0, 600000
loop:
  addi t0, t0, -1
  bnez t0, loop
  halt t0
)";

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Owns the bench's scratch directory and removes it, with the job outputs
// in it, on every return path.
class RemovedOnExit {
 public:
  explicit RemovedOnExit(std::string path) : path_(std::move(path)) {}
  ~RemovedOnExit() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RemovedOnExit(const RemovedOnExit&) = delete;
  RemovedOnExit& operator=(const RemovedOnExit&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string WriteProgram(const std::string& dir, const char* name, const char* text) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

struct FleetRun {
  uint64_t wall_ms = 0;
  std::vector<JobRecord> records;
};

FleetRun RunFleet(std::vector<JobSpec> jobs, FleetOptions options) {
  FleetSupervisor fleet(std::move(jobs), std::move(options));
  const uint64_t start = NowMs();
  DieIfError(fleet.Run(), "fleet run");
  FleetRun run;
  run.wall_ms = NowMs() - start;
  run.records = fleet.records();
  for (const JobRecord& record : run.records) {
    if (record.outcome != JobOutcome::kOk && record.outcome != JobOutcome::kRetriedOk &&
        record.outcome != JobOutcome::kEvictedOk) {
      std::fprintf(stderr, "job %s ended %s\n", record.name.c_str(),
                   JobOutcomeName(record.outcome));
      std::exit(1);
    }
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string msim_path;
  uint64_t jobs = 16;
  uint64_t workers = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--msim") {
      msim_path = argv[i + 1];
    } else if (arg == "--jobs") {
      jobs = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (arg == "--workers") {
      workers = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  if (msim_path.empty()) {
    // Default: the msim binary in the sibling tools/ build directory.
    const std::string self(argv[0]);
    const size_t slash = self.rfind('/');
    msim_path = (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
                "/../tools/msim";
  }
  if (::access(msim_path.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "no msim binary at '%s' (pass --msim PATH)\n", msim_path.c_str());
    return 1;
  }

  char tmpl[] = "/tmp/bench_fleet_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const RemovedOnExit work_dir(tmpl);
  const std::string& dir = work_dir.path();
  const std::string short_prog = WriteProgram(dir, "short.s", kShortProgram);
  const std::string long_prog = WriteProgram(dir, "long.s", kLongProgram);

  PrintHeader("Fleet supervision overhead (msimd)", "robustness addendum; not a paper table");
  BenchReport report("fleet", "docs/robustness.md fleet supervision");

  FleetOptions base;
  base.msim_path = msim_path;
  base.retries = 2;
  base.deadline_ms = 120000;
  base.backoff.base_ms = 1;
  base.backoff.max_ms = 8;
  base.poll_ms = 2;
  base.verbose = false;

  // Throughput: N short jobs across the pool.
  {
    std::vector<JobSpec> specs;
    for (uint64_t i = 0; i < jobs; ++i) {
      JobSpec spec;
      spec.name = "short" + std::to_string(i);
      spec.machine.program = short_prog;
      spec.max_cycles = 1000000;
      specs.push_back(spec);
    }
    FleetOptions options = base;
    options.out_dir = dir + "/throughput";
    options.workers = workers;
    const FleetRun run = RunFleet(std::move(specs), options);
    const double jobs_per_sec =
        run.wall_ms != 0 ? 1000.0 * (double)jobs / (double)run.wall_ms : 0.0;
    std::printf("throughput: %llu jobs / %u workers: %llu ms (%.1f jobs/sec)\n",
                (unsigned long long)jobs, (unsigned)workers, (unsigned long long)run.wall_ms,
                jobs_per_sec);
    report.AddRow("throughput")
        .Field("jobs", jobs)
        .Field("workers", workers)
        .Field("wall_ms", run.wall_ms)
        .Field("jobs_per_sec", jobs_per_sec);
  }

  // Cold baseline: one long checkpointing job, no faults.
  const auto long_job = [&](const char* name) {
    JobSpec spec;
    spec.name = name;
    spec.machine.program = long_prog;
    spec.max_cycles = 50000000;
    spec.checkpoint_every = 100000;
    return spec;
  };
  uint64_t cold_ms = 0;
  uint64_t cold_cycles = 0;
  {
    FleetOptions options = base;
    options.out_dir = dir + "/cold";
    options.workers = 1;
    const FleetRun run = RunFleet({long_job("cold")}, options);
    cold_ms = run.wall_ms;
    cold_cycles = run.records[0].guest_cycles;
    std::printf("cold:       %llu guest cycles, %llu ms, %llu attempt(s)\n",
                (unsigned long long)cold_cycles, (unsigned long long)cold_ms,
                (unsigned long long)run.records[0].attempts);
    report.AddRow("cold")
        .Field("guest_cycles", cold_cycles)
        .Field("attempts", run.records[0].attempts)
        .Field("wall_ms", cold_ms);
  }

  // Crash-resume: the same job SIGKILLed once mid-run by chaos injection.
  {
    FleetOptions options = base;
    options.out_dir = dir + "/resume";
    options.workers = 1;
    options.chaos = {"kill@resume"};
    const FleetRun run = RunFleet({long_job("resume")}, options);
    const JobRecord& record = run.records[0];
    if (record.guest_cycles != cold_cycles) {
      std::fprintf(stderr, "resumed run reported %llu cycles, cold run %llu — determinism bug\n",
                    (unsigned long long)record.guest_cycles, (unsigned long long)cold_cycles);
      return 1;
    }
    const double overhead_pct =
        cold_ms != 0 ? 100.0 * ((double)run.wall_ms - (double)cold_ms) / (double)cold_ms : 0.0;
    std::printf("crash-resume: %llu guest cycles, %llu ms, %llu attempt(s), %+.1f%% wall vs cold\n",
                (unsigned long long)record.guest_cycles, (unsigned long long)run.wall_ms,
                (unsigned long long)record.attempts, overhead_pct);
    report.AddRow("crash_resume")
        .Field("guest_cycles", record.guest_cycles)
        .Field("attempts", record.attempts)
        .Field("failures", record.failures)
        .Field("wall_ms", run.wall_ms)
        .Field("overhead_pct", overhead_pct);
  }

  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
