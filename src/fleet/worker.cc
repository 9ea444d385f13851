#include "fleet/worker.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/exit_codes.h"
#include "support/strings.h"

namespace msim {

AttemptPlan PlanAttempt(const JobSpec& spec, const std::string& msim_path,
                        const std::string& job_dir, uint64_t attempt,
                        const std::string& restore_path, uint64_t restore_cycle,
                        uint64_t heartbeat_every_cycles) {
  AttemptPlan plan;
  plan.stdout_path = StrFormat("%s/attempt-%llu.stdout", job_dir.c_str(),
                               (unsigned long long)attempt);
  plan.stderr_path = StrFormat("%s/attempt-%llu.stderr", job_dir.c_str(),
                               (unsigned long long)attempt);
  std::vector<std::string>& argv = plan.argv;
  argv = {msim_path, "run"};
  const std::vector<std::string> machine = MsimArgs(spec.machine);
  argv.insert(argv.end(), machine.begin(), machine.end());
  if (spec.max_cycles != 0) {
    // The budget is absolute guest cycles for the whole job: a resume from
    // cycle C gets the remaining C-relative slice, so an uninterrupted run
    // and a crash-resumed one time out at the same absolute cycle.
    const uint64_t remaining =
        restore_cycle < spec.max_cycles ? spec.max_cycles - restore_cycle : 1;
    argv.push_back("--max-cycles");
    argv.push_back(StrFormat("%llu", (unsigned long long)remaining));
  }
  if (spec.checkpoint_every != 0) {
    argv.push_back("--checkpoint-every");
    argv.push_back(StrFormat("%llu", (unsigned long long)spec.checkpoint_every));
    argv.push_back("--checkpoint-dir");
    argv.push_back(job_dir + "/ckpts");
  }
  if (!restore_path.empty()) {
    argv.push_back("--restore");
    argv.push_back(restore_path);
  }
  argv.push_back("--stats-json");
  argv.push_back(job_dir + "/stats.json");
  argv.push_back("--crash-dump");
  argv.push_back(job_dir + "/crash.json");
  if (heartbeat_every_cycles != 0) {
    argv.push_back("--metrics-every");
    argv.push_back(StrFormat("%llu", (unsigned long long)heartbeat_every_cycles));
    argv.push_back("--metrics-jsonl");
    argv.push_back(job_dir + "/heartbeat.jsonl");
  }
  for (const std::string& extra : spec.extra_args) {
    argv.push_back(extra);
  }
  return plan;
}

Status WorkerProcess::Start(const AttemptPlan& plan) {
  if (running()) {
    return FailedPrecondition("worker already running");
  }
  std::vector<char*> argv;
  argv.reserve(plan.argv.size() + 1);
  for (const std::string& arg : plan.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Internal(StrFormat("fork failed: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child. Wire the standard streams, then exec; on any failure exit with
    // a code the parent classifies as a crash.
    const int devnull = ::open("/dev/null", O_RDONLY);
    const int out = ::open(plan.stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(plan.stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (devnull < 0 || out < 0 || err < 0 || ::dup2(devnull, 0) < 0 || ::dup2(out, 1) < 0 ||
        ::dup2(err, 2) < 0) {
      ::_exit(127);
    }
    ::close(devnull);
    ::close(out);
    ::close(err);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  pid_ = pid;
  return Status::Ok();
}

Result<bool> WorkerProcess::Poll(int* raw_status) {
  if (!running()) {
    return FailedPrecondition("worker not running");
  }
  const pid_t got = ::waitpid(pid_, raw_status, WNOHANG);
  if (got == 0) {
    return false;
  }
  if (got < 0) {
    return Internal(StrFormat("waitpid(%d) failed: %s", (int)pid_, std::strerror(errno)));
  }
  pid_ = -1;
  return true;
}

void WorkerProcess::Signal(int sig) {
  if (running()) {
    ::kill(pid_, sig);
  }
}

uint64_t WorkerProcess::RssKb() const {
  if (!running()) {
    return 0;
  }
  std::ifstream in(StrFormat("/proc/%d/status", (int)pid_));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {  // "VmRSS:    1234 kB"
      uint64_t kb = 0;
      for (char c : line) {
        if (c >= '0' && c <= '9') {
          kb = kb * 10 + static_cast<uint64_t>(c - '0');
        }
      }
      return kb;
    }
  }
  return 0;
}

AttemptOutcome ClassifyWaitStatus(int raw_status) {
  AttemptOutcome outcome;
  if (WIFSIGNALED(raw_status)) {
    outcome.cls = AttemptClass::kCrash;
    outcome.signal = WTERMSIG(raw_status);
    outcome.exit_code = 128 + outcome.signal;
    return outcome;
  }
  outcome.exit_code = WIFEXITED(raw_status) ? WEXITSTATUS(raw_status) : 127;
  switch (outcome.exit_code) {
    case kExitOk:
      outcome.cls = AttemptClass::kSuccess;
      break;
    case kExitEvicted:
      outcome.cls = AttemptClass::kEvicted;
      break;
    case kExitTimeout:
      outcome.cls = AttemptClass::kGuestTimeout;
      break;
    case kExitUsage:
      outcome.cls = AttemptClass::kUsageError;
      break;
    case kExitSdc:
      outcome.cls = AttemptClass::kSdc;
      break;
    default:
      // Runtime errors, fatal simulation faults and nonzero guest halts all
      // land here: the attempt failed and may be retried.
      outcome.cls = AttemptClass::kCrash;
      break;
  }
  return outcome;
}

std::string ReadFileTail(const std::string& path, size_t max_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return {};
  }
  const std::streamoff size = in.tellg();
  const std::streamoff start =
      size > static_cast<std::streamoff>(max_bytes) ? size - static_cast<std::streamoff>(max_bytes)
                                                    : 0;
  in.seekg(start);
  std::string tail(static_cast<size_t>(size - start), '\0');
  in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  tail.resize(static_cast<size_t>(in.gcount()));
  return tail;
}

}  // namespace msim
