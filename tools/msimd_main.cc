// msimd — the fault-tolerant simulation fleet supervisor.
//
// Runs a manifest of independent msim jobs (src/fleet/manifest.h) across a
// pool of isolated worker processes with crash/hang/deadline supervision,
// checkpoint-restart retries and graceful degradation under memory pressure
// (src/fleet/scheduler.h). Writes a deterministic fleet.json report.
//
// Exit codes (support/exit_codes.h):
//   0   every job reached a successful terminal state
//   1   infrastructure failure (out dir, fork, report I/O)
//   2   usage or manifest error
//   20  at least one job ended crashed or timed-out
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/manifest.h"
#include "fleet/report.h"
#include "fleet/scheduler.h"
#include "metal/machine_spec.h"
#include "support/exit_codes.h"
#include "support/strings.h"

using namespace msim;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  msimd run <manifest.ini> [--msim PATH] [--out-dir D] [--workers N]\n"
               "            [--retries N] [--deadline-ms N] [--hang-timeout-ms N]\n"
               "            [--heartbeat-every CYCLES] [--backoff-base-ms N] "
               "[--backoff-max-ms N]\n"
               "            [--mem-limit-mb N] [--grace-ms N] [--poll-ms N]\n"
               "            [--fail-streak-throttle N] [--chaos kill|term|stop@JOB]...\n"
               "            [--fleet-json FILE|-] [--quiet]\n"
               "  msimd check <manifest.ini>\n"
               "\n"
               "--msim defaults to an 'msim' binary next to msimd; --fleet-json defaults\n"
               "to <out-dir>/fleet.json ('-' writes the report to stdout).\n");
  return kExitUsage;
}

// Default worker binary: 'msim' in the directory msimd was invoked from.
std::string DefaultMsimPath(const char* argv0) {
  const std::string self(argv0);
  const size_t slash = self.rfind('/');
  return slash == std::string::npos ? "msim" : self.substr(0, slash + 1) + "msim";
}

int RunFleet(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string manifest_path = argv[2];
  FleetOptions options;
  options.msim_path = DefaultMsimPath(argv[0]);
  std::string fleet_json;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--msim") {
      const char* v = next("--msim");
      if (v == nullptr) return Usage();
      options.msim_path = v;
    } else if (arg == "--out-dir") {
      const char* v = next("--out-dir");
      if (v == nullptr) return Usage();
      options.out_dir = v;
    } else if (arg == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr || !ParseU64Flag("--workers", v, &options.workers)) return Usage();
      if (options.workers == 0) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return Usage();
      }
    } else if (arg == "--retries") {
      const char* v = next("--retries");
      if (v == nullptr || !ParseU64Flag("--retries", v, &options.retries)) return Usage();
    } else if (arg == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (v == nullptr || !ParseU64Flag("--deadline-ms", v, &options.deadline_ms)) return Usage();
    } else if (arg == "--hang-timeout-ms") {
      const char* v = next("--hang-timeout-ms");
      if (v == nullptr || !ParseU64Flag("--hang-timeout-ms", v, &options.hang_timeout_ms)) {
        return Usage();
      }
    } else if (arg == "--heartbeat-every") {
      const char* v = next("--heartbeat-every");
      if (v == nullptr ||
          !ParseU64Flag("--heartbeat-every", v, &options.heartbeat_every_cycles)) {
        return Usage();
      }
    } else if (arg == "--backoff-base-ms") {
      const char* v = next("--backoff-base-ms");
      if (v == nullptr || !ParseU64Flag("--backoff-base-ms", v, &options.backoff.base_ms)) {
        return Usage();
      }
    } else if (arg == "--backoff-max-ms") {
      const char* v = next("--backoff-max-ms");
      if (v == nullptr || !ParseU64Flag("--backoff-max-ms", v, &options.backoff.max_ms)) {
        return Usage();
      }
    } else if (arg == "--mem-limit-mb") {
      const char* v = next("--mem-limit-mb");
      if (v == nullptr || !ParseU64Flag("--mem-limit-mb", v, &options.mem_limit_mb)) {
        return Usage();
      }
    } else if (arg == "--grace-ms") {
      const char* v = next("--grace-ms");
      if (v == nullptr || !ParseU64Flag("--grace-ms", v, &options.grace_ms)) return Usage();
    } else if (arg == "--poll-ms") {
      const char* v = next("--poll-ms");
      if (v == nullptr || !ParseU64Flag("--poll-ms", v, &options.poll_ms)) return Usage();
      if (options.poll_ms == 0) {
        options.poll_ms = 1;
      }
    } else if (arg == "--fail-streak-throttle") {
      const char* v = next("--fail-streak-throttle");
      if (v == nullptr ||
          !ParseU64Flag("--fail-streak-throttle", v, &options.fail_streak_throttle)) {
        return Usage();
      }
    } else if (arg == "--chaos") {
      const char* v = next("--chaos");
      if (v == nullptr) return Usage();
      options.chaos.push_back(v);
    } else if (arg == "--fleet-json") {
      const char* v = next("--fleet-json");
      if (v == nullptr) return Usage();
      fleet_json = v;
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  auto jobs = LoadManifestFile(manifest_path);
  if (!jobs.ok()) {
    std::fprintf(stderr, "msimd: %s\n", jobs.status().message().c_str());
    return kExitUsage;
  }
  if (fleet_json.empty()) {
    fleet_json = options.out_dir + "/fleet.json";
  }

  FleetSupervisor fleet(std::move(*jobs), std::move(options));
  if (const Status status = fleet.Run(); !status.ok()) {
    std::fprintf(stderr, "msimd: %s\n", status.message().c_str());
    return status.code() == ErrorCode::kInvalidArgument || status.code() == ErrorCode::kParseError
               ? kExitUsage
               : kExitRuntimeError;
  }

  if (fleet_json == "-") {
    WriteFleetJson(fleet, std::cout);
  } else {
    std::ofstream out(fleet_json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "msimd: cannot write %s\n", fleet_json.c_str());
      return kExitRuntimeError;
    }
    WriteFleetJson(fleet, out);
  }

  const int exit_code = fleet.SuggestedExitCode();
  if (fleet.options().verbose) {
    uint64_t succeeded = 0;
    for (const JobRecord& record : fleet.records()) {
      succeeded += record.outcome == JobOutcome::kOk || record.outcome == JobOutcome::kRetriedOk ||
                           record.outcome == JobOutcome::kEvictedOk
                       ? 1
                       : 0;
    }
    std::fprintf(stderr, "[fleet] done: %llu/%zu jobs succeeded, report in %s\n",
                 (unsigned long long)succeeded, fleet.records().size(),
                 fleet_json == "-" ? "stdout" : fleet_json.c_str());
  }
  return exit_code;
}

int CheckManifest(int argc, char** argv) {
  if (argc != 3) {
    return Usage();
  }
  const auto jobs = LoadManifestFile(argv[2]);
  if (!jobs.ok()) {
    std::fprintf(stderr, "msimd: %s\n", jobs.status().message().c_str());
    return kExitUsage;
  }
  std::printf("%zu job(s) ok\n", jobs->size());
  for (const JobSpec& job : *jobs) {
    std::printf("  %s: %s%s\n", job.name.c_str(), job.machine.program.c_str(),
                job.checkpoint_every != 0 ? " (checkpointed)" : "");
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "run") {
    return RunFleet(argc, argv);
  }
  if (command == "check") {
    return CheckManifest(argc, argv);
  }
  return Usage();
}
