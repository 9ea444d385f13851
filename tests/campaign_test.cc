// Tests for the differential fault-injection campaign engine (src/campaign):
// the outcome classifier (one test per taxonomy class), snapshot-fork vs.
// cold-start byte identity, campaign.json two-run determinism, the
// parity-on/off headline behavior (detection converts every would-be SDC
// into detected_recovered), SDC repro harvesting, and the mcamp CLI.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.h"
#include "cpu/trap.h"
#include "metal/system.h"
#include "support/exit_codes.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"

namespace msim {
namespace {

// The campaign guest pair from tests/data/ (embedded so the unit tests are
// path-independent; CI runs the same sources through the mcamp CLI). Entry 1
// accumulates in MRAM data word 0, entry 2 is the transparent scrub-and-retry
// machine-check recovery mroutine.
constexpr const char* kMcode = R"(
    .equ D_COUNT, 0
    .equ CR_MEPC, 1
    .equ CR_MRAM_SCRUB, 52

    .mentry 1, count_add
    .mentry 2, mcheck_recover

  count_add:
    mld t0, D_COUNT(zero)
    add t0, t0, a0
    mst t0, D_COUNT(zero)
    mv a0, t0
    mexit

  mcheck_recover:
    wcr CR_MRAM_SCRUB, zero
    wmr m30, t0
    rcr t0, CR_MEPC
    wmr m31, t0
    rmr t0, m30
    mexit
)";

constexpr const char* kGuest = R"(
  _start:
    li s0, 12
    li s1, 0
    li s2, 0xF0003000
  loop:
    li a0, 5
    menter 1
    mv s1, a0
    andi t0, s1, 63
    addi t0, t0, 32
    sw t0, 0(s2)
    addi s0, s0, -1
    bnez s0, loop
    halt s1
)";

CampaignEngine::SystemSetup MakeSetup() {
  return [](MetalSystem& system) -> Status {
    system.AddMcode(kMcode);
    system.DelegateException(ExcCause::kMachineCheck, 2);
    return system.LoadProgramSource(kGuest);
  };
}

// Focused MRAM-data fault space: every trial lands on the accelerator's live
// counter word, so the parity-on/off contrast is sharp with a small budget.
CampaignOptions FocusedOptions(uint64_t trials) {
  CampaignOptions options;
  options.targets = {FaultTarget::kMramData};
  options.max_location = 1;
  options.trials = trials;
  options.snapshots = 4;
  return options;
}

// ---------------------------------------------------------------------------
// Classifier: one test per taxonomy class, on canned outcomes.

ArchOutcome GoldenOutcome() {
  ArchOutcome golden;
  golden.halted = true;
  golden.exit_code = 60;
  golden.arch_digest = 0xAAAAu;
  return golden;
}

TEST(ClassifyTrialTest, IdenticalOutcomeIsMasked) {
  const ArchOutcome golden = GoldenOutcome();
  EXPECT_EQ(ClassifyTrial(golden, golden), TrialOutcome::kMasked);
}

TEST(ClassifyTrialTest, RecoveredTrialIsDetectedRecovered) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.machine_checks = 1;  // a machine check fired, yet the outcome matches
  trial.words_scrubbed = 1;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kDetectedRecovered);
}

TEST(ClassifyTrialTest, FatalMachineCheckIsDetectedFatal) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;
  trial.fatal = true;
  trial.fatal_message = "undelegated machine check (mram_data_parity) at pc=0xffff0000";
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kDetectedFatal);
}

TEST(ClassifyTrialTest, OtherFatalIsCrash) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;
  trial.fatal = true;
  trial.fatal_message = "metal watchdog expired after 1000 cycles";
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kCrash);
}

TEST(ClassifyTrialTest, NeitherHaltedNorFatalIsHang) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial;  // still running when the budget expired
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kHang);
}

TEST(ClassifyTrialTest, DivergentDigestIsSdc) {
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.arch_digest = 0xBBBBu;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kSdc);
}

TEST(ClassifyTrialTest, DivergentDigestIsSdcEvenWhenDetected) {
  // Corruption that escapes into the final state is a recovery bug; a
  // machine check along the way must not reclassify it as detected.
  const ArchOutcome golden = GoldenOutcome();
  ArchOutcome trial = golden;
  trial.arch_digest = 0xBBBBu;
  trial.machine_checks = 3;
  EXPECT_EQ(ClassifyTrial(golden, trial), TrialOutcome::kSdc);
}

TEST(ClassifyTrialTest, OutcomeNamesAreStable) {
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kMasked), "masked");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kDetectedRecovered), "detected_recovered");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kDetectedFatal), "detected_fatal");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kSdc), "sdc");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kHang), "hang");
  EXPECT_STREQ(TrialOutcomeName(TrialOutcome::kCrash), "crash");
}

// ---------------------------------------------------------------------------
// Engine.

TEST(CampaignEngineTest, GoldenRunMustHaltCleanly) {
  CampaignOptions options;
  options.max_cycles = 500;
  CampaignEngine engine(
      CoreConfig{},
      [](MetalSystem& system) {
        return system.LoadProgramSource("  _start:\n    li s0, 1\n  spin:\n    bnez s0, spin\n");
      },
      options);
  const Status status = engine.Prepare();
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition) << status.ToString();
}

TEST(CampaignEngineTest, PlanIsDeterministicStratifiedAndInRange) {
  CampaignEngine a(CoreConfig{}, MakeSetup(), FocusedOptions(40));
  CampaignEngine b(CoreConfig{}, MakeSetup(), FocusedOptions(40));
  ASSERT_OK(a.Prepare());
  ASSERT_OK(b.Prepare());
  const auto plan_a = a.PlanTrials();
  const auto plan_b = b.PlanTrials();
  ASSERT_EQ(plan_a.size(), 40u);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  uint64_t last_cycle = 0;
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].spec.text, plan_b[i].spec.text);
    EXPECT_GE(plan_a[i].spec.cycle, 1u);
    EXPECT_LT(plan_a[i].spec.cycle, a.golden().cycles);
    EXPECT_TRUE(plan_a[i].spec.has_at);
    EXPECT_EQ(plan_a[i].spec.at, 0u);  // max_location=1 pins the live word
    // Single-target stratification: injection cycles are non-decreasing
    // across the run, i.e. coverage sweeps the execution end to end.
    EXPECT_GE(plan_a[i].spec.cycle, last_cycle);
    last_cycle = plan_a[i].spec.cycle;
  }
}

TEST(CampaignEngineTest, ForkedTrialIsByteIdenticalToColdStart) {
  CampaignEngine engine(CoreConfig{}, MakeSetup(), FocusedOptions(12));
  ASSERT_OK(engine.Prepare());
  bool any_forked = false;
  for (const TrialPlan& plan : engine.PlanTrials()) {
    auto forked = engine.RunTrial(plan, /*allow_fork=*/true);
    auto cold = engine.RunTrial(plan, /*allow_fork=*/false);
    ASSERT_OK(forked.status());
    ASSERT_OK(cold.status());
    EXPECT_FALSE(cold->forked);
    any_forked |= forked->forked;
    // Identical final machine state, byte for byte (DRAM included) — the
    // fork optimization is invisible to the campaign's results.
    EXPECT_EQ(forked->result.state_digest, cold->result.state_digest) << plan.spec.text;
    EXPECT_EQ(forked->outcome, cold->outcome) << plan.spec.text;
    EXPECT_EQ(forked->detected, cold->detected) << plan.spec.text;
    EXPECT_EQ(forked->detect_cycle, cold->detect_cycle) << plan.spec.text;
  }
  EXPECT_TRUE(any_forked);  // late-cycle trials must actually use the forks
}

// ---------------------------------------------------------------------------
// Full campaigns: the parity headline and report determinism.

TEST(CampaignTest, ParityConvertsEverySdcIntoDetectedRecovered) {
  CampaignEngine with_parity(CoreConfig{}, MakeSetup(), FocusedOptions(30));
  auto on = RunCampaign(with_parity);
  ASSERT_OK(on.status());

  CoreConfig unprotected;
  unprotected.mram_parity = false;
  CampaignEngine without_parity(unprotected, MakeSetup(), FocusedOptions(30));
  auto off = RunCampaign(without_parity);
  ASSERT_OK(off.status());

  const auto count = [](const CampaignReport& r, TrialOutcome o) {
    return r.counts[static_cast<size_t>(o)];
  };
  // Parity on: faults on the live word are caught and recovered, none silent.
  EXPECT_GT(count(*on, TrialOutcome::kDetectedRecovered), 0u);
  EXPECT_EQ(count(*on, TrialOutcome::kSdc), 0u);
  EXPECT_TRUE(on->sdcs.empty());
  // Parity off: the same fault space, the same trials — every one of those
  // recoveries becomes silent data corruption.
  EXPECT_EQ(count(*off, TrialOutcome::kDetectedRecovered), 0u);
  EXPECT_EQ(count(*off, TrialOutcome::kSdc), count(*on, TrialOutcome::kDetectedRecovered));
  EXPECT_EQ(count(*off, TrialOutcome::kMasked), count(*on, TrialOutcome::kMasked));
  // Every SDC carries a lockstep pinpoint at or after its injection cycle.
  ASSERT_EQ(off->sdcs.size(), count(*off, TrialOutcome::kSdc));
  for (const TrialRecord& sdc : off->sdcs) {
    ASSERT_TRUE(sdc.has_divergence) << sdc.plan.spec.text;
    EXPECT_TRUE(sdc.divergence.diverged);
    EXPECT_GE(sdc.divergence.cycle_a, sdc.plan.spec.cycle);
  }
}

TEST(CampaignTest, CampaignJsonIsByteIdenticalAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    CampaignOptions options = FocusedOptions(20);
    options.collect_trial_records = true;
    CampaignEngine engine(CoreConfig{}, MakeSetup(), options);
    auto report = RunCampaign(engine);
    ASSERT_OK(report.status());
    std::ostringstream json;
    WriteCampaignJson(*report, json);
    EXPECT_TRUE(JsonLooksValid(json.str()));
    if (run == 0) {
      first = json.str();
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(first, json.str());
    }
  }
}

TEST(CampaignTest, HarvestsSelfContainedSdcRepro) {
  const std::string out_dir = testing::TempDir() + "campaign_sdc_repro";
  CoreConfig unprotected;
  unprotected.mram_parity = false;
  CampaignOptions options = FocusedOptions(8);
  options.out_dir = out_dir;
  options.repro_files.push_back({"guest.s", kGuest});
  options.repro_files.push_back({"mcode.s", kMcode});
  options.repro_msim_args = "guest.s --mcode mcode.s --no-parity";
  CampaignEngine engine(unprotected, MakeSetup(), options);
  auto report = RunCampaign(engine);
  ASSERT_OK(report.status());
  ASSERT_FALSE(report->sdcs.empty());
  const TrialRecord& sdc = report->sdcs.front();
  ASSERT_FALSE(sdc.repro_dir.empty());
  const std::string dir = out_dir + "/" + sdc.repro_dir;
  for (const char* name : {"guest.s", "mcode.s", "spec.txt", "divergence.json", "repro.sh"}) {
    std::ifstream in(dir + "/" + name);
    EXPECT_TRUE(in.good()) << dir << "/" << name;
  }
  std::ifstream spec_in(dir + "/spec.txt");
  std::string spec_line;
  std::getline(spec_in, spec_line);
  EXPECT_EQ(spec_line, sdc.plan.spec.text);
}

// ---------------------------------------------------------------------------
// The mcamp CLI, end to end.

int RunCommand(const std::string& command) {
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string WriteGuestFiles(const std::string& dir) {
  std::ofstream guest(dir + "/guest.s");
  guest << kGuest;
  std::ofstream mcode(dir + "/mcode.s");
  mcode << kMcode;
  return dir;
}

TEST(McampCliTest, CleanCampaignExitsZeroAndSdcCampaignExits14) {
  const std::string dir = WriteGuestFiles(testing::TempDir());
  const std::string base = std::string(MCAMP_CLI_PATH) + " run " + dir + "/guest.s --mcode " +
                           dir + "/mcode.s --mcheck-entry 2 --target mram-data --locations 1 "
                           "--trials 10 --campaign-json " +
                           dir + "/campaign.json 2>/dev/null";
  EXPECT_EQ(RunCommand(base), kExitOk);
  std::ifstream json_in(dir + "/campaign.json");
  std::stringstream json;
  json << json_in.rdbuf();
  EXPECT_TRUE(JsonLooksValid(json.str()));
  EXPECT_NE(json.str().find("\"detected_recovered\""), std::string::npos);

  const std::string no_parity = std::string(MCAMP_CLI_PATH) + " run " + dir +
                                "/guest.s --mcode " + dir +
                                "/mcode.s --mcheck-entry 2 --no-parity --target mram-data "
                                "--locations 1 --trials 10 --campaign-json " +
                                dir + "/campaign-np.json 2>/dev/null";
  EXPECT_EQ(RunCommand(no_parity), kExitSdc);
}

// The harvested repro names the machine with shell-quoted copies of the
// guest files, so spaced file names replay too, from any directory.
TEST(McampCliTest, SdcReproReplaysSpacedFileNames) {
  const std::string dir = testing::TempDir() + "/mcamp spaced";
  ASSERT_EQ(RunCommand("rm -rf '" + dir + "' && mkdir -p '" + dir + "/my dir'"), 0);
  std::ofstream(dir + "/my dir/guest one.s") << kGuest;
  std::ofstream(dir + "/my dir/m c.s") << kMcode;
  const std::string campaign = std::string(MCAMP_CLI_PATH) + " run '" + dir +
                               "/my dir/guest one.s' --mcode '" + dir +
                               "/my dir/m c.s' --mcheck-entry 2 --no-parity --target mram-data "
                               "--locations 1 --trials 50 --out '" + dir + "/repros' 2>/dev/null";
  ASSERT_EQ(RunCommand(campaign), kExitSdc);
  std::ifstream script_in(dir + "/repros/sdc-0/repro.sh");
  std::stringstream script;
  script << script_in.rdbuf();
  EXPECT_NE(script.str().find("replay 'guest one.s' --mcode 'mcode0-m c.s' --no-parity"),
            std::string::npos)
      << script.str();
  EXPECT_EQ(RunCommand("MSIM=" + std::string(MSIM_CLI_PATH) + " sh '" + dir +
                       "/repros/sdc-0/repro.sh' >/dev/null 2>&1"),
            kExitDivergence);
}

TEST(McampCliTest, RejectsUsageErrors) {
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run 2>/dev/null"), kExitUsage);
  const std::string dir = WriteGuestFiles(testing::TempDir());
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run " + dir +
                       "/guest.s --trials 0 2>/dev/null"),
            kExitUsage);
  EXPECT_EQ(RunCommand(std::string(MCAMP_CLI_PATH) + " run " + dir +
                       "/guest.s --target warp-core 2>/dev/null"),
            kExitUsage);
}

// Numeric flags hold msim's strict parsing standard: negative values, garbage
// suffixes and overflow are usage errors (exit 2), never a silent 0 or a
// saturated value, and documented range floors are enforced at the CLI.
TEST(McampCliTest, RejectsMalformedNumericFlags) {
  const std::string dir = WriteGuestFiles(testing::TempDir());
  const std::string base = std::string(MCAMP_CLI_PATH) + " run " + dir + "/guest.s ";
  EXPECT_EQ(RunCommand(base + "--trials -3 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--trials 10abc 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--max-cycles 99999999999999999999 2>/dev/null"),
            kExitUsage);
  EXPECT_EQ(RunCommand(base + "--seed banana 2>/dev/null"), kExitUsage);
  // --hang-factor documents "min 2"; the engine no longer clamps silently.
  EXPECT_EQ(RunCommand(base + "--hang-factor 1 2>/dev/null"), kExitUsage);
  EXPECT_EQ(RunCommand(base + "--hang-factor 0 2>/dev/null"), kExitUsage);
}

}  // namespace
}  // namespace msim
