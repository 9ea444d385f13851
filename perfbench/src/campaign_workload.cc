// Workload `campaign`: a seeded fault campaign with MRAM parity on and
// scrub-and-retry recovery, the paper's §2.3 machine-check story. Each job is
// one CampaignEngine::RunTrial over PlanTrials(). The guest runs ~240
// simulated cycles, so a job is almost entirely the fixed per-trial costs of
// the metal and snap layers (machine construction, boot, snapshot restore and
// the full-DRAM state digest). It is where sparse DRAM and cheaper machine
// construction show, and where the cpu layer does almost nothing.
//
// Traced jobs mirror RunTrial with public calls, so each layer gets its own
// span, and every mirrored trial must reproduce the engine's outcome and
// state digest exactly.
#include <array>

#include "asm/assembler.h"
#include "campaign/campaign.h"
#include "fault/fault.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "support/strings.h"
#include "trace/trace.h"

#include "bench.h"

namespace perfbench {
namespace {

using msim::ArchOutcome;
using msim::TrialOutcome;

// Same machine as tests/data/campaign_mcode.s: a counter accelerator whose
// state lives in MRAM data, plus a transparent scrub-and-retry recovery
// mroutine for delegated machine checks.
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

// Same guest as tests/data/campaign_guest.s: twelve accelerator calls, one
// console byte per call, halt code 60 on a clean or fully recovered run.
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

constexpr uint32_t kGoldenExit = 60;
// Trials per round. A round takes ~1.5 s on a 4-core x86 host, so a timed
// run repeats it several times and every trial's digest is checked against
// its first run.
constexpr uint64_t kTrialsPerRound = 100;

// Plan index of the trial at `position` in a round. PlanTrials orders plans
// by injection cycle, alternating targets, so in plan order the first ten
// trials of a round would all be injected before the first fork mark and none
// would restore a snapshot. Position 10w + j runs plan 10j + (w + j) % 10
// instead: positions 10w to 10w + 9 take one plan from each tenth of the
// cycle range, five per target, so every timing window holds the same mix.
constexpr size_t PlanAt(size_t position) {
  const size_t window = position / 10;
  const size_t j = position % 10;
  return 10 * j + (window + j) % 10;
}
static_assert(kTrialsPerRound == 100, "PlanAt interleaves a 100-trial round");

// RunToBudget from src/campaign: run until halt, fatal fault or `budget`.
void RunToBudget(msim::Core& core, uint64_t budget) {
  while (!core.halted() && !core.has_fatal() && core.cycle() < budget) {
    core.Run(budget - core.cycle());
  }
}

// Records the cycle of the first machine check, as RunTrial's sink does.
class FirstMcheckSink : public msim::TraceSink {
 public:
  void OnEvent(const msim::TraceEvent& event) override {
    if (event.kind == msim::TraceEventKind::kMachineCheck && !seen_) {
      seen_ = true;
      cycle_ = event.cycle;
    }
  }
  bool seen() const { return seen_; }
  uint64_t cycle() const { return cycle_; }

 private:
  bool seen_ = false;
  uint64_t cycle_ = 0;
};

// The architecturally visible result of one trial, as both the engine and the
// mirror report it.
struct TrialResult {
  TrialOutcome outcome = TrialOutcome::kMasked;
  ArchOutcome arch;
  bool forked = false;
  uint64_t fork_cycle = 0;
  bool detected = false;
  uint64_t detect_cycle = 0;
};

// Simulated-statistics fold of one trial. The full state digest is left out:
// it covers host-side cache state serialized with the core, which host-only
// changes may alter. The mirror check compares it separately.
uint64_t TrialDigest(const TrialResult& t) {
  uint64_t h = kFnvBasis;
  for (const uint64_t v :
       {static_cast<uint64_t>(t.outcome), static_cast<uint64_t>(t.arch.halted),
        static_cast<uint64_t>(t.arch.fatal), static_cast<uint64_t>(t.arch.exit_code),
        t.arch.cycles, t.arch.instret, t.arch.machine_checks, t.arch.parity_errors,
        t.arch.words_scrubbed, t.arch.arch_digest, static_cast<uint64_t>(t.forked),
        t.fork_cycle, static_cast<uint64_t>(t.detected), t.detect_cycle}) {
    FnvMix(h, v);
  }
  return h;
}

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(uint64_t seed) : seed_(seed) {}

  std::string Setup(SpanRecorder& spans) override {
    {
      ScopedSpan span(spans, "asm.assemble");
      msim::Result<msim::Program> guest = msim::Assemble(kGuest);
      if (!guest.ok()) {
        return "assemble guest: " + guest.status().ToString();
      }
      guest_ = std::move(guest).value();
    }
    msim::CampaignOptions options;
    options.targets = {msim::FaultTarget::kMramData, msim::FaultTarget::kMramCode};
    options.trials = kTrialsPerRound;
    options.seed = seed_;
    options.max_location = 8;
    engine_ = std::make_unique<msim::CampaignEngine>(
        config_, [this](msim::MetalSystem& system) { return SetupSystem(system); }, options);
    {
      ScopedSpan span(spans, "campaign.prepare");
      const msim::Status prepared = engine_->Prepare();
      if (!prepared.ok()) {
        return "prepare: " + prepared.ToString();
      }
    }
    const ArchOutcome& golden = engine_->golden();
    if (!golden.halted || golden.fatal || golden.exit_code != kGoldenExit) {
      return msim::StrFormat("golden run exited %u, want %u", golden.exit_code, kGoldenExit);
    }
    {
      ScopedSpan span(spans, "campaign.plan");
      plans_ = engine_->PlanTrials();
    }
    if (plans_.size() != kTrialsPerRound) {
      return "PlanTrials returned the wrong number of trials";
    }
    return CaptureForkPoints(spans);
  }

  void Rewind() override { next_ = 0; }

  // Runs the engine's own trial for the last mirrored one and compares them.
  std::string CheckReference() override {
    msim::Result<msim::TrialRecord> record = engine_->RunTrial(plans_[mirrored_index_]);
    if (!record.ok()) {
      return "engine trial: " + record.status().ToString();
    }
    const TrialResult reference = FromRecord(record.value());
    if (mirrored_.outcome != reference.outcome ||
        mirrored_.arch.state_digest != reference.arch.state_digest ||
        TrialDigest(mirrored_) != TrialDigest(reference)) {
      return msim::StrFormat("mirrored trial %zu differs from RunTrial", mirrored_index_);
    }
    return "";
  }

  JobResult RunNextJob(SpanRecorder& spans) override {
    const size_t index = PlanAt(next_);
    next_ = (next_ + 1) % plans_.size();
    JobResult job;
    job.slot = index;  // the digest fold stays in plan order
    job.round_end = next_ == 0;
    TrialResult trial;
    if (spans.enabled()) {
      job.error = MirrorTrial(plans_[index], spans, &trial, &job.counters);
      mirrored_ = trial;
      mirrored_index_ = index;
    } else {
      msim::Result<msim::TrialRecord> record = engine_->RunTrial(plans_[index]);
      if (!record.ok()) {
        job.error = "trial: " + record.status().ToString();
      } else {
        trial = FromRecord(record.value());
      }
    }
    if (!job.error.empty()) {
      return job;
    }
    // Only the cycles after the fork point are simulated by this trial.
    const ForkPoint* fork = trial.forked ? FindFork(trial.fork_cycle) : nullptr;
    if (trial.forked && fork == nullptr) {
      job.error = "trial forked at an unknown cycle";
      return job;
    }
    job.sim_cycles = trial.arch.cycles - trial.fork_cycle;
    job.sim_instructions = trial.arch.instret - (fork != nullptr ? fork->instret : 0);
    job.digest = TrialDigest(trial);
    counts_[static_cast<size_t>(trial.outcome)] += 1;
    ++trials_run_;
    return job;
  }

  std::string Finish() override {
    uint64_t total = 0;
    for (const uint64_t count : counts_) {
      total += count;
    }
    if (total != trials_run_) {
      return "outcome counts do not sum to the trials run";
    }
    if (counts_[static_cast<size_t>(TrialOutcome::kSdc)] != 0) {
      return "silent data corruption with parity on";
    }
    if (trials_run_ >= kTrialsPerRound &&
        counts_[static_cast<size_t>(TrialOutcome::kDetectedRecovered)] == 0) {
      return "no trial exercised machine-check recovery";
    }
    return "";
  }

  uint64_t expected_default_digest() const override { return 0xb7dd4c0f4ca326ebull; }

 private:
  struct ForkPoint {
    uint64_t cycle = 0;
    uint64_t instret = 0;
    std::vector<uint8_t> image;  // traced runs only
  };

  msim::Status SetupSystem(msim::MetalSystem& system) const {
    system.AddMcode(kMcode);
    system.DelegateException(msim::ExcCause::kMachineCheck, 2);
    return system.LoadProgram(guest_);
  }

  // Replays the golden run to the engine's fork marks j * C / (snapshots + 1),
  // recording the instructions retired there and, when tracing, the
  // benchmark's own snapshot images for mirrored trials to restore.
  std::string CaptureForkPoints(SpanRecorder& spans) {
    msim::MetalSystem system(config_);
    msim::Status status = SetupSystem(system);
    if (status.ok()) {
      status = system.Boot();
    }
    if (!status.ok()) {
      return "fork replay: " + status.ToString();
    }
    const uint64_t golden_cycles = engine_->golden().cycles;
    const uint32_t snapshots = engine_->options().snapshots;
    forks_.clear();
    for (uint32_t j = 1; j <= snapshots; ++j) {
      const uint64_t mark = golden_cycles * j / (snapshots + 1);
      if (mark == 0 || mark >= golden_cycles || (!forks_.empty() && mark <= forks_.back().cycle)) {
        continue;
      }
      RunToBudget(system.core(), mark);
      if (system.core().cycle() != mark) {
        return "fork replay desynchronized";
      }
      ForkPoint fork;
      fork.cycle = mark;
      fork.instret = system.core().stats().instret;
      if (spans.enabled()) {
        ScopedSpan span(spans, "snap.save");
        fork.image = msim::SaveSnapshot(system.core());
        span.set_work(fork.image.size());
      }
      forks_.push_back(std::move(fork));
    }
    return "";
  }

  const ForkPoint* FindFork(uint64_t cycle) const {
    for (const ForkPoint& fork : forks_) {
      if (fork.cycle == cycle) {
        return &fork;
      }
    }
    return nullptr;
  }

  static TrialResult FromRecord(const msim::TrialRecord& record) {
    TrialResult t;
    t.outcome = record.outcome;
    t.arch = record.result;
    t.forked = record.forked;
    t.fork_cycle = record.fork_cycle;
    t.detected = record.detected;
    t.detect_cycle = record.detect_cycle;
    return t;
  }

  // RunTrial, step by step: construct, set up, boot, arm the fault, restore
  // the latest fork at or before the injection, run to the budget, capture
  // and classify.
  std::string MirrorTrial(const msim::TrialPlan& plan, SpanRecorder& spans, TrialResult* out,
                          SimCounters* counters) {
    std::unique_ptr<msim::MetalSystem> system;
    {
      ScopedSpan span(spans, "metal.construct");
      system = std::make_unique<msim::MetalSystem>(config_);
    }
    {
      ScopedSpan span(spans, "ext.host_setup");
      const msim::Status status = SetupSystem(*system);
      if (!status.ok()) {
        return "setup: " + status.ToString();
      }
    }
    {
      ScopedSpan span(spans, "metal.boot");
      const msim::Status status = system->Boot();
      if (!status.ok()) {
        return "boot: " + status.ToString();
      }
    }
    msim::Core& core = system->core();
    FirstMcheckSink sink;
    msim::FaultEngine fault_engine(0);
    {
      ScopedSpan span(spans, "campaign.arm");
      system->SetTraceSink(&sink);
      fault_engine.AddSpec(plan.spec);
      core.SetFaultEngine(&fault_engine);
    }
    const ForkPoint* fork = nullptr;
    for (const ForkPoint& candidate : forks_) {
      if (candidate.cycle <= plan.spec.cycle) {
        fork = &candidate;
      }
    }
    if (fork != nullptr) {
      ScopedSpan span(spans, "snap.restore");
      const msim::Status status = msim::RestoreSnapshot(core, fork->image);
      if (!status.ok()) {
        return "restore: " + status.ToString();
      }
      out->forked = true;
      out->fork_cycle = fork->cycle;
    }
    {
      ScopedSpan span(spans, "cpu.run");
      const uint64_t instret = core.stats().instret;
      RunToBudget(core, engine_->trial_budget());
      span.set_work(core.stats().instret - instret);
    }
    {
      ScopedSpan span(spans, "campaign.capture");
      ArchOutcome& a = out->arch;
      a.halted = core.halted();
      a.fatal = core.has_fatal();
      a.exit_code = core.exit_code();
      a.cycles = core.cycle();
      a.instret = core.stats().instret;
      a.machine_checks = core.stats().machine_checks;
      a.parity_errors = core.mram().stats().parity_errors;
      a.words_scrubbed = core.mram().stats().words_scrubbed;
      a.console = core.console().output();
      a.fatal_message = core.fatal_status().message();
      a.arch_digest = msim::ArchitecturalDigest(core);
      ScopedSpan digest(spans, "snap.digest_dram");
      a.state_digest = core.StateDigest(/*include_dram=*/true);
    }
    {
      ScopedSpan span(spans, "campaign.classify");
      out->outcome = msim::ClassifyTrial(engine_->golden(), out->arch);
    }
    out->detected = sink.seen();
    out->detect_cycle = sink.cycle();
    *counters = ReadCounters(system->metrics());
    return "";
  }

  const uint64_t seed_;
  const msim::CoreConfig config_{};  // parity on, the default machine
  msim::Program guest_;
  std::unique_ptr<msim::CampaignEngine> engine_;
  std::vector<msim::TrialPlan> plans_;
  std::vector<ForkPoint> forks_;
  size_t next_ = 0;  // round position of the next trial
  TrialResult mirrored_;  // the last mirrored trial, for CheckReference
  size_t mirrored_index_ = 0;
  std::array<uint64_t, msim::kNumTrialOutcomes> counts_{};
  uint64_t trials_run_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaignWorkload(uint64_t seed) {
  return std::make_unique<CampaignWorkload>(seed);
}

}  // namespace perfbench
