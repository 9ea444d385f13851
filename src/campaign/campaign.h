// Differential fault-injection campaigns (docs/robustness.md "Fault
// campaigns").
//
// A campaign measures the paper's resilience story with numbers instead of
// one hand-written --inject spec at a time: enumerate a deterministic fault
// space (target structure x location x bit x injection cycle), run one golden
// reference execution, then run one trial per sampled fault and classify each
// trial against the golden run. The classifier's taxonomy:
//
//   masked               the fault never became architecturally visible —
//                        same final registers, exit code and console bytes,
//                        and no machine check fired;
//   detected-recovered   a machine check fired and the delegated recovery
//                        mroutine (scrub-and-retry) restored the golden
//                        outcome;
//   detected-fatal       a machine check fired and stopped the machine
//                        (undelegated or double machine check) — loud, safe;
//   sdc                  silent data corruption: the final architectural
//                        state differs from golden without the machine
//                        stopping. The headline failure class;
//   hang                 the trial neither halted nor died within
//                        golden_cycles * hang_factor;
//   crash                the simulation died fatally for a reason other than
//                        a machine check (e.g. an illegal instruction decoded
//                        from a corrupted code word in a --no-parity run).
//
// Determinism contract: a campaign is a pure function of (guest, CoreConfig,
// CampaignOptions). Trials fork from in-memory mid-run snapshots of the
// golden execution instead of cold-starting; because snapshots are byte-exact
// and campaign fault specs are fully pinned (cycle, location and bit all
// chosen up front by the seeded planner — FaultEngine::Apply draws no RNG),
// a forked trial is byte-identical to a cold-started one (campaign_test
// proves it), and campaign.json is byte-identical across runs. No wall-clock
// value appears anywhere in the report.
#ifndef MSIM_CAMPAIGN_CAMPAIGN_H_
#define MSIM_CAMPAIGN_CAMPAIGN_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cpu/config.h"
#include "fault/fault.h"
#include "metal/machine_spec.h"
#include "snap/diverge.h"
#include "support/result.h"
#include "trace/histogram.h"

namespace msim {

class Core;
class MetalSystem;

// The architecturally visible outcome of one complete execution: what a
// program's user could observe. `arch_digest` folds the final register file,
// halt/exit state and console bytes — deliberately NOT cycles, instret or
// machine-check counts, so a scrub-and-retry recovery that replays a few
// instructions still digests equal to golden. `state_digest` is the full
// Core::StateDigest (DRAM included) for byte-identity assertions.
struct ArchOutcome {
  bool halted = false;
  bool fatal = false;
  uint32_t exit_code = 0;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  uint64_t machine_checks = 0;
  uint64_t parity_errors = 0;
  uint64_t words_scrubbed = 0;
  std::string console;
  std::string fatal_message;
  uint64_t arch_digest = 0;
  uint64_t state_digest = 0;
};

// FNV-1a over x1..x31, the halt/fatal/exit state and the console byte stream.
// (Non-const only because the console/MRAM accessors are; reads everything.)
uint64_t ArchitecturalDigest(Core& core);

// Snapshots the outcome of a finished (or stopped) core.
ArchOutcome CaptureArchOutcome(Core& core);

enum class TrialOutcome : uint32_t {
  kMasked = 0,
  kDetectedRecovered = 1,
  kDetectedFatal = 2,
  kSdc = 3,
  kHang = 4,
  kCrash = 5,
};
inline constexpr size_t kNumTrialOutcomes = 6;
const char* TrialOutcomeName(TrialOutcome outcome);

// Pure classification of a trial against the golden outcome (taxonomy above).
// A trial whose architectural digest differs from golden is an SDC even when
// a machine check also fired — corruption that escapes into the final state
// is a recovery bug, and hiding it under "detected" would mask exactly the
// failures a campaign exists to find.
TrialOutcome ClassifyTrial(const ArchOutcome& golden, const ArchOutcome& trial);

struct CampaignOptions {
  // Fault space. Targets are swept round-robin; injection cycles are
  // stratified per target over the golden run's live cycle range [1, C-1]
  // so every region of the execution is sampled.
  std::vector<FaultTarget> targets;
  uint64_t trials = 200;
  uint64_t seed = 0;

  // Cap on the per-target location universe: sample locations only from the
  // first `max_location` words / registers / entries / lines (0 = the full
  // structure). Focusing the space on the guest's live state is how a small
  // trial budget gets meaningful per-structure rates — uniform sampling over
  // a mostly-idle 2048-word MRAM data segment mostly measures dead space.
  uint32_t max_location = 0;

  // Golden-run snapshot forking: `snapshots` evenly spaced in-memory fork
  // points (0 disables; trials then cold-start, byte-identically).
  uint32_t snapshots = 8;
  bool use_forks = true;

  // A trial that has neither halted nor died by golden_cycles * hang_factor
  // is classified kHang.
  uint64_t hang_factor = 4;

  // Golden-run cycle budget; 0 = CoreConfig::default_max_cycles. The golden
  // run must halt cleanly within it.
  uint64_t max_cycles = 0;

  // Include the per-trial records array in campaign.json.
  bool collect_trial_records = false;

  // Pinpoint every SDC with a cycle-granularity lockstep rerun (clean vs.
  // injected) — exact first-divergence cycle and component list.
  bool lockstep_sdc = true;

  // SDC repro harvesting: when non-empty, every SDC gets a self-contained
  // directory <out_dir>/sdc-<trial> with the guest sources, the spec, the
  // divergence report and a repro.sh replaying the corruption under
  // `msim replay`. Empty disables harvesting.
  std::string out_dir;
  std::vector<ReproFile> repro_files;  // copied into every SDC repro directory
  // msim arguments identifying the guest inside the repro dir, e.g.
  // "program.s --mcode mcode.s --no-parity"; repro.sh appends the replay
  // flags and the trial's --b-inject spec.
  std::string repro_msim_args;
};

// One planned trial: a fully pinned one-shot fault spec plus bookkeeping.
struct TrialPlan {
  uint64_t index = 0;
  FaultSpec spec;
};

struct TrialRecord {
  TrialPlan plan;
  TrialOutcome outcome = TrialOutcome::kMasked;
  ArchOutcome result;
  bool forked = false;        // started from a golden snapshot
  uint64_t fork_cycle = 0;
  bool detected = false;      // a machine check fired during the trial
  uint64_t detect_cycle = 0;
  uint64_t detect_latency = 0;  // detect_cycle - injection cycle
  std::string repro_dir;      // relative to out_dir; SDC trials only
  bool has_divergence = false;
  DivergenceReport divergence;  // SDC lockstep pinpoint, when enabled
};

// Per-structure aggregation (AVF-style): how vulnerable each target is.
struct TargetSummary {
  FaultTarget target = FaultTarget::kMramCode;
  uint64_t trials = 0;
  std::array<uint64_t, kNumTrialOutcomes> counts{};
  Histogram detect_latency;  // cycles from injection to machine check
};

struct CampaignReport {
  CoreConfig config;
  CampaignOptions options;
  ArchOutcome golden;
  uint64_t cycle_lo = 0;  // sampled injection-cycle range
  uint64_t cycle_hi = 0;
  std::array<uint64_t, kNumTrialOutcomes> counts{};
  uint64_t forked_trials = 0;
  std::vector<TargetSummary> per_target;
  std::vector<TrialRecord> sdcs;    // full records for every SDC
  std::vector<TrialRecord> trials;  // all records, when collect_trial_records
};

// The campaign engine. `setup` configures a fresh MetalSystem (mcode,
// delegation, program) and is invoked for the golden run, every trial and
// every lockstep rerun — it must be deterministic.
class CampaignEngine {
 public:
  using SystemSetup = std::function<Status(MetalSystem&)>;

  CampaignEngine(const CoreConfig& config, SystemSetup setup, CampaignOptions options);
  ~CampaignEngine();

  const CampaignOptions& options() const { return options_; }
  const CoreConfig& config() const { return config_; }
  const ArchOutcome& golden() const { return golden_; }
  uint64_t trial_budget() const;  // golden cycles * hang_factor

  // Runs the golden reference execution (which must halt cleanly) and
  // captures the evenly spaced fork snapshots. Idempotent.
  Status Prepare();

  // Seeded stratified sampling of the fault space. Pure given the options
  // and the golden cycle count; requires Prepare().
  std::vector<TrialPlan> PlanTrials() const;

  // Runs one trial: fork (or cold-start when `allow_fork` is false or no
  // snapshot precedes the injection), inject, run to halt or budget,
  // classify. Requires Prepare().
  Result<TrialRecord> RunTrial(const TrialPlan& plan, bool allow_fork = true);

  // Cycle-lockstep rerun of a trial against a clean twin; pinpoints the
  // first divergent cycle and components (SDC post-processing).
  Result<DivergenceReport> PinpointDivergence(const TrialPlan& plan);

 private:
  Result<std::unique_ptr<MetalSystem>> BuildSystem() const;

  CoreConfig config_;
  SystemSetup setup_;
  CampaignOptions options_;
  bool prepared_ = false;
  ArchOutcome golden_;
  // Fork points: (cycle, snapshot bytes), ascending by cycle.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> snapshots_;
};

// Runs the full campaign: Prepare, plan, every trial, aggregation, SDC
// lockstep pinpointing and repro harvesting.
Result<CampaignReport> RunCampaign(CampaignEngine& engine);

// Deterministic, wall-clock-free JSON export (byte-identical across runs).
void WriteCampaignJson(const CampaignReport& report, std::ostream& out);

// One-paragraph human summary for stderr.
void WriteCampaignText(const CampaignReport& report, std::ostream& out);

}  // namespace msim

#endif  // MSIM_CAMPAIGN_CAMPAIGN_H_
