// Fleet supervisor tests (src/fleet): manifest parsing, backoff, wait-status
// classification, and end-to-end supervision of scripted fake workers
// (tests/fleet_fake_worker.cc) plus real msim checkpoint-evict-resume.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include "fleet/backoff.h"
#include "fleet/manifest.h"
#include "fleet/report.h"
#include "fleet/scheduler.h"
#include "fleet/worker.h"
#include "snap/snapshot.h"
#include "support/exit_codes.h"
#include "tests/sim_test_util.h"

namespace msim {
namespace {

// A fresh mkdtemp directory, removed with everything in it when the guard
// goes out of scope, so a test run leaves nothing behind in /tmp.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/fleet_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir != nullptr ? dir : "";
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good());
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Fast supervision budgets so failure paths resolve in milliseconds.
FleetOptions FakeWorkerOptions(const std::string& out_dir) {
  FleetOptions options;
  options.msim_path = FLEET_FAKE_WORKER_PATH;
  options.out_dir = out_dir;
  options.workers = 2;
  options.retries = 2;
  options.deadline_ms = 10000;
  options.backoff.base_ms = 1;
  options.backoff.max_ms = 4;
  options.grace_ms = 150;
  options.poll_ms = 2;
  options.verbose = false;
  return options;
}

JobSpec FakeJob(const std::string& dir, const std::string& name, const std::string& directive) {
  JobSpec spec;
  spec.name = name;
  spec.machine.program = dir + "/" + name + ".directive";
  WriteText(spec.machine.program, directive + "\n");
  return spec;
}

TEST(ManifestTest, ParsesDefaultsAndOverrides) {
  const auto jobs = ParseManifest(
      "# comment\n"
      "[defaults]\n"
      "checkpoint-every = 500\n"
      "retries = 4\n"
      "\n"
      "[job alpha]\n"
      "program = a.s\n"
      "mcode = m1.s\n"
      "mcode = m2.s\n"
      "storage = mram\n"
      "max-cycles = 1000\n"
      "\n"
      "[job beta.2]\n"
      "program = b.s\n"
      "checkpoint-every = 0\n"
      "retries = 0\n"
      "deadline-ms = 123\n"
      "args = --no-fast-step --no-parity\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().message();
  ASSERT_EQ(jobs->size(), 2u);
  const JobSpec& alpha = (*jobs)[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.machine.mcode.size(), 2u);
  EXPECT_EQ(alpha.machine.config.mroutine_storage, MroutineStorage::kMram);
  EXPECT_EQ(alpha.checkpoint_every, 500u);  // inherited
  EXPECT_EQ(alpha.retries, 4);
  EXPECT_EQ(alpha.max_cycles, 1000u);
  const JobSpec& beta = (*jobs)[1];
  EXPECT_EQ(beta.checkpoint_every, 0u);  // overridden
  EXPECT_EQ(beta.retries, 0);
  EXPECT_EQ(beta.deadline_ms, 123u);
  ASSERT_EQ(beta.extra_args.size(), 2u);
  EXPECT_EQ(beta.extra_args[0], "--no-fast-step");
}

TEST(ManifestTest, StripsTrailingComments) {
  const auto jobs = ParseManifest(
      "[defaults]              ; fleet-wide\n"
      "storage = mram   # mram | dram-cached\n"
      "[job sweep-mram]        # names must be unique\n"
      "program = x.s   # required\n"
      "mcode = m#1.s\t; a '#' inside a value stays\n"
      "retries = 3 ;\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().message();
  ASSERT_EQ(jobs->size(), 1u);
  const JobSpec& job = (*jobs)[0];
  EXPECT_EQ(job.name, "sweep-mram");
  EXPECT_EQ(job.machine.program, "x.s");
  EXPECT_EQ(job.machine.config.mroutine_storage, MroutineStorage::kMram);
  ASSERT_EQ(job.machine.mcode.size(), 1u);
  EXPECT_EQ(job.machine.mcode[0], "m#1.s");
  EXPECT_EQ(job.retries, 3);
}

TEST(ManifestTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseManifest("").ok());
  EXPECT_FALSE(ParseManifest("[job a]\n").ok());                      // no program
  EXPECT_FALSE(ParseManifest("[job a]\nprogram=x\nbogus=1\n").ok());  // unknown key
  EXPECT_FALSE(ParseManifest("[job a]\nprogram=x\nretries=2x\n").ok());
  EXPECT_FALSE(ParseManifest("[job a]\nprogram=x\n[job a]\nprogram=y\n").ok());
  EXPECT_FALSE(ParseManifest("[job ../evil]\nprogram=x\n").ok());
  EXPECT_FALSE(ParseManifest("[defaults]\nprogram=x\n").ok());  // not a budget key
}

TEST(BackoffTest, DoublesUpToCap) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 1000;
  EXPECT_EQ(BackoffDelayMs(policy, 0), 0u);
  EXPECT_EQ(BackoffDelayMs(policy, 1), 100u);
  EXPECT_EQ(BackoffDelayMs(policy, 2), 200u);
  EXPECT_EQ(BackoffDelayMs(policy, 4), 800u);
  EXPECT_EQ(BackoffDelayMs(policy, 5), 1000u);
  EXPECT_EQ(BackoffDelayMs(policy, 64), 1000u);
  EXPECT_EQ(BackoffDelayMs(policy, 1000), 1000u);
}

TEST(WorkerTest, ClassifiesWaitStatuses) {
  // Raw wait(2) statuses, Linux encoding: exit code in bits 8..15, signal in
  // bits 0..6.
  EXPECT_EQ(ClassifyWaitStatus(0).cls, AttemptClass::kSuccess);
  EXPECT_EQ(ClassifyWaitStatus(kExitEvicted << 8).cls, AttemptClass::kEvicted);
  EXPECT_EQ(ClassifyWaitStatus(kExitTimeout << 8).cls, AttemptClass::kGuestTimeout);
  EXPECT_EQ(ClassifyWaitStatus(kExitUsage << 8).cls, AttemptClass::kUsageError);
  EXPECT_EQ(ClassifyWaitStatus(kExitSdc << 8).cls, AttemptClass::kSdc);
  EXPECT_EQ(ClassifyWaitStatus(1 << 8).cls, AttemptClass::kCrash);
  const AttemptOutcome segv = ClassifyWaitStatus(SIGSEGV);
  EXPECT_EQ(segv.cls, AttemptClass::kCrash);
  EXPECT_EQ(segv.signal, SIGSEGV);
  EXPECT_EQ(segv.exit_code, 128 + SIGSEGV);
}

TEST(WorkerTest, PlanCarriesResumeAndShrinksBudget) {
  JobSpec spec;
  spec.name = "j";
  spec.machine.program = "p.s";
  spec.max_cycles = 1000;
  spec.checkpoint_every = 100;
  const AttemptPlan plan = PlanAttempt(spec, "/bin/msim", "/out/jobs/j", 2,
                                       "/out/jobs/j/ckpts/checkpoint-300.msnap", 300, 0);
  const std::string joined = [&] {
    std::string s;
    for (const auto& a : plan.argv) s += a + " ";
    return s;
  }();
  EXPECT_NE(joined.find("--restore /out/jobs/j/ckpts/checkpoint-300.msnap"), std::string::npos);
  EXPECT_NE(joined.find("--max-cycles 700"), std::string::npos)
      << "resume must shrink the guest budget to keep max-cycles absolute: " << joined;
  EXPECT_NE(joined.find("--checkpoint-dir /out/jobs/j/ckpts"), std::string::npos);
  EXPECT_EQ(plan.stderr_path, "/out/jobs/j/attempt-2.stderr");
}

TEST(ChaosTest, ParsesSpecs) {
  const auto kill = ParseChaosSpec("kill@my-job");
  ASSERT_TRUE(kill.ok());
  EXPECT_EQ(kill->action, ChaosSpec::Action::kKill);
  EXPECT_EQ(kill->job, "my-job");
  EXPECT_TRUE(ParseChaosSpec("stop@a").ok());
  EXPECT_FALSE(ParseChaosSpec("maim@a").ok());
  EXPECT_FALSE(ParseChaosSpec("kill").ok());
  EXPECT_FALSE(ParseChaosSpec("kill@").ok());
}

TEST(SnapshotDiscoveryTest, SkipsCorruptAndOrdersByCycle) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  WriteText(dir + "/checkpoint-200.msnap", "not a snapshot");
  WriteText(dir + "/checkpoint-100.msnap", "also garbage");
  WriteText(dir + "/unrelated.txt", "ignored");
  const auto listed = ListSnapshots(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].cycle, 100u);
  EXPECT_EQ((*listed)[1].cycle, 200u);
  // Neither parses as a snapshot, so there is no valid one to resume from.
  EXPECT_FALSE(FindLatestValidSnapshot(dir).ok());
}

TEST(FleetTest, RetriesCrashesUntilSuccess) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "flaky", "crash-until 2")};
  FleetSupervisor fleet(std::move(jobs), FakeWorkerOptions(dir + "/out"));
  ASSERT_TRUE(fleet.Run().ok());
  const JobRecord& record = fleet.records()[0];
  EXPECT_EQ(record.outcome, JobOutcome::kRetriedOk);
  EXPECT_EQ(record.attempts, 3u);
  EXPECT_EQ(record.failures, 2u);
  EXPECT_EQ(record.guest_cycles, 4242u);
  EXPECT_EQ(fleet.SuggestedExitCode(), kExitOk);
  EXPECT_EQ(fleet.metrics().Value("fleet", "retries_total"), 2u);
}

TEST(FleetTest, ExhaustsRetryBudgetAndHarvestsRepro) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "doomed", "crash-until 99")};
  jobs[0].retries = 1;
  FleetSupervisor fleet(std::move(jobs), FakeWorkerOptions(dir + "/out"));
  ASSERT_TRUE(fleet.Run().ok());
  const JobRecord& record = fleet.records()[0];
  EXPECT_EQ(record.outcome, JobOutcome::kCrashed);
  EXPECT_EQ(record.attempts, 2u);  // 1 + 1 retry
  EXPECT_EQ(record.signal, SIGABRT);
  EXPECT_EQ(fleet.SuggestedExitCode(), kExitJobsFailed);
  // The repro directory is self-contained: script + stderr tail.
  ASSERT_EQ(record.repro_dir, "jobs/doomed/repro");
  const std::string repro = dir + "/out/jobs/doomed/repro";
  const std::string script = ReadText(repro + "/repro.sh");
  EXPECT_NE(script.find("exec '" FLEET_FAKE_WORKER_PATH "' 'run'"), std::string::npos) << script;
  EXPECT_NE(ReadText(repro + "/stderr.tail").find("injected crash"), std::string::npos);
}

TEST(FleetTest, HarvestsCrashDump) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "faulty", "dump")};
  jobs[0].retries = 0;
  FleetSupervisor fleet(std::move(jobs), FakeWorkerOptions(dir + "/out"));
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.records()[0].outcome, JobOutcome::kCrashed);
  EXPECT_EQ(fleet.records()[0].exit_code, kExitFatalFault);
  EXPECT_NE(ReadText(dir + "/out/jobs/faulty/repro/crash.json").find("\"kind\": \"fake\""),
            std::string::npos);
}

TEST(FleetTest, GuestTimeoutIsTerminalWithoutRetry) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "slow", "exit 12")};
  FleetSupervisor fleet(std::move(jobs), FakeWorkerOptions(dir + "/out"));
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.records()[0].outcome, JobOutcome::kTimedOut);
  EXPECT_EQ(fleet.records()[0].attempts, 1u) << "deterministic timeouts must not retry";
}

TEST(FleetTest, UsageErrorIsTerminalWithoutRetry) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "broken", "exit 2")};
  FleetSupervisor fleet(std::move(jobs), FakeWorkerOptions(dir + "/out"));
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.records()[0].outcome, JobOutcome::kCrashed);
  EXPECT_EQ(fleet.records()[0].attempts, 1u);
}

TEST(FleetTest, DeadlineKillsHungWorker) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "wedged", "hang-until 99")};
  jobs[0].retries = 0;
  FleetOptions options = FakeWorkerOptions(dir + "/out");
  options.deadline_ms = 200;
  FleetSupervisor fleet(std::move(jobs), options);
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.records()[0].outcome, JobOutcome::kTimedOut);
  EXPECT_GE(fleet.records()[0].deadline_kills, 1u);
}

TEST(FleetTest, HangDetectorRecoversViaRetry) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  // First attempt wedges with no heartbeat progress; the retry succeeds.
  std::vector<JobSpec> jobs = {FakeJob(dir, "stuck", "hang-until 1")};
  FleetOptions options = FakeWorkerOptions(dir + "/out");
  options.hang_timeout_ms = 200;
  FleetSupervisor fleet(std::move(jobs), options);
  ASSERT_TRUE(fleet.Run().ok());
  const JobRecord& record = fleet.records()[0];
  EXPECT_EQ(record.outcome, JobOutcome::kRetriedOk);
  EXPECT_GE(record.hang_kills, 1u);
  EXPECT_EQ(record.guest_cycles, 4242u);
}

TEST(FleetTest, FleetJsonIsDeterministicAcrossWorkerCounts) {
  const auto run = [](uint64_t workers) {
    const TempDir temp_dir;
    const std::string& dir = temp_dir.path();
    std::vector<JobSpec> jobs;
    for (int i = 0; i < 5; ++i) {
      jobs.push_back(FakeJob(dir, "job" + std::to_string(i), "ok " + std::to_string(100 + i)));
    }
    jobs.push_back(FakeJob(dir, "flaky", "crash-until 1"));
    FleetOptions options = FakeWorkerOptions(dir + "/out");
    options.workers = workers;
    FleetSupervisor fleet(std::move(jobs), options);
    EXPECT_TRUE(fleet.Run().ok());
    std::ostringstream report;
    WriteFleetJson(fleet, report);
    return report.str();
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(serial, parallel) << "fleet.json must not depend on host scheduling";
  EXPECT_NE(serial.find("\"outcome\":\"retried\""), std::string::npos);
  // Every attempt record names its exit code so post-mortems don't need the
  // numeric table from support/exit_codes.h at hand.
  EXPECT_NE(serial.find("\"exit_name\":\"ok\""), std::string::npos);
}

TEST(FleetTest, MemoryPressureEvictsAndResumes) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  std::vector<JobSpec> jobs = {FakeJob(dir, "big0", "evict-wait"),
                               FakeJob(dir, "big1", "evict-wait")};
  FleetOptions options = FakeWorkerOptions(dir + "/out");
  options.mem_limit_mb = 1;  // any two live workers exceed this immediately
  FleetSupervisor fleet(std::move(jobs), options);
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.SuggestedExitCode(), kExitOk);
  EXPECT_GE(fleet.metrics().Value("fleet", "mem_evictions"), 1u);
  uint64_t evicted_ok = 0;
  for (const JobRecord& record : fleet.records()) {
    evicted_ok += record.outcome == JobOutcome::kEvictedOk ? 1 : 0;
  }
  EXPECT_GE(evicted_ok, 1u);
}

// End-to-end with the real simulator: a chaos SIGKILL mid-run, resume from
// the latest checkpoint, and a stats.json byte-identical to an uninterrupted
// run outside the host-tier cache counters — the core promise of
// checkpoint-restart retries.
TEST(FleetRealMsimTest, CrashResumeStatsAreByteIdentical) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  const std::string program = dir + "/loop.s";
  WriteText(program,
            "_start:\n"
            "  li t0, 60000\n"
            "loop:\n"
            "  addi t0, t0, -1\n"
            "  bnez t0, loop\n"
            "  halt t0\n");
  const auto manifest = [&](const std::string& name) {
    JobSpec spec;
    spec.name = name;
    spec.machine.program = program;
    spec.max_cycles = 10000000;
    // Snapshots carry the whole guest DRAM (~20 MB): keep the cadence coarse
    // so parallel test shards don't saturate the disk and trip the deadline.
    spec.checkpoint_every = 50000;
    return spec;
  };
  FleetOptions options = FakeWorkerOptions(dir + "/chaos");
  options.msim_path = MSIM_CLI_PATH;
  options.workers = 1;
  options.deadline_ms = 60000;  // headroom for checkpoint I/O under test load
  options.chaos = {"kill@victim"};
  FleetSupervisor chaos_fleet({manifest("victim")}, options);
  ASSERT_TRUE(chaos_fleet.Run().ok());
  const JobRecord& victim = chaos_fleet.records()[0];
  ASSERT_TRUE(victim.outcome == JobOutcome::kRetriedOk || victim.outcome == JobOutcome::kOk);
  EXPECT_EQ(chaos_fleet.SuggestedExitCode(), kExitOk);

  FleetOptions clean_options = FakeWorkerOptions(dir + "/clean");
  clean_options.msim_path = MSIM_CLI_PATH;
  clean_options.workers = 1;
  clean_options.deadline_ms = 60000;
  FleetSupervisor clean_fleet({manifest("victim")}, clean_options);
  ASSERT_TRUE(clean_fleet.Run().ok());
  ASSERT_EQ(clean_fleet.records()[0].outcome, JobOutcome::kOk);

  const std::string interrupted = ReadText(dir + "/chaos/jobs/victim/stats.json");
  const std::string straight = ReadText(dir + "/clean/jobs/victim/stats.json");
  ASSERT_FALSE(straight.empty());
  // A resumed run starts its host-tier caches cold; every architectural
  // counter, histogram and profile row must still match byte for byte.
  EXPECT_EQ(WithoutHostTierMetrics(interrupted), WithoutHostTierMetrics(straight))
      << "a checkpoint-resumed run must report byte-identical architectural stats";
  if (victim.outcome == JobOutcome::kRetriedOk) {
    EXPECT_TRUE(Exists(dir + "/chaos/jobs/victim/ckpts")) << "resume implies checkpoints";
  }
}

TEST(FleetRealMsimTest, GracefulEvictionWritesFinalCheckpoint) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  const std::string program = dir + "/loop.s";
  WriteText(program,
            "_start:\n"
            "  li t0, 60000\n"
            "loop:\n"
            "  addi t0, t0, -1\n"
            "  bnez t0, loop\n"
            "  halt t0\n");
  JobSpec spec;
  spec.name = "evictee";
  spec.machine.program = program;
  spec.max_cycles = 10000000;
  spec.checkpoint_every = 50000;
  FleetOptions options = FakeWorkerOptions(dir + "/out");
  options.msim_path = MSIM_CLI_PATH;
  options.workers = 1;
  options.deadline_ms = 60000;  // headroom for checkpoint I/O under test load
  // The evicted worker must flush a ~20 MB final checkpoint before the
  // SIGTERM -> SIGKILL escalation fires, even on a disk busy with parallel
  // test shards.
  options.grace_ms = 10000;
  options.chaos = {"term@evictee"};
  FleetSupervisor fleet({spec}, options);
  ASSERT_TRUE(fleet.Run().ok());
  const JobRecord& record = fleet.records()[0];
  ASSERT_TRUE(record.outcome == JobOutcome::kEvictedOk || record.outcome == JobOutcome::kOk);
  EXPECT_EQ(record.failures, 0u) << "evictions must not consume the retry budget";
  if (record.outcome == JobOutcome::kEvictedOk) {
    EXPECT_GE(record.evictions, 1u);
    EXPECT_GT(record.guest_cycles, 0u);
  }
}

// ---------------------------------------------------------------------------
// The msimd CLI, end to end: numeric flags hold msim's strict parsing
// standard (support/strings.h ParseInt) — negative values, garbage suffixes
// and overflow exit 2, never a silent 0 or a saturated value.

TEST(MsimdCliTest, RejectsMalformedNumericFlags) {
  const TempDir temp_dir;
  const std::string& dir = temp_dir.path();
  const std::string manifest = dir + "/fleet.ini";
  WriteText(manifest, "[job noop]\nprogram = " + dir + "/noop.s\n");
  WriteText(dir + "/noop.s", "_start:\n  halt zero\n");
  const std::string base = std::string(MSIMD_CLI_PATH) + " run " + manifest + " ";
  EXPECT_EQ(RunShell(std::string(MSIMD_CLI_PATH) + " 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--workers -2 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--workers 4abc 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--workers 0 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--retries 99999999999999999999 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--deadline-ms 5s 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--heartbeat-every banana 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunShell(base + "--mem-limit-mb 1e9 2>/dev/null"), kExitUsage);
}

}  // namespace
}  // namespace msim
