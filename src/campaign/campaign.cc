#include "campaign/campaign.h"

#include <algorithm>

#include "cpu/core.h"
#include "mem/mram.h"
#include "metal/machine_spec.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace msim {
namespace {

void FnvMix(uint64_t& h, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xFF;
    h *= kFnvPrime;
  }
}

// Captures the cycle of the first machine check a trial raises. Attaching a
// sink is architecturally invisible, so instrumented and uninstrumented
// trials stay byte-identical.
class FirstMcheckSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kMachineCheck && !seen_) {
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

// Runs `core` until halt, fatal fault or the absolute cycle `budget`.
void RunToBudget(Core& core, uint64_t budget) {
  while (!core.halted() && !core.has_fatal() && core.cycle() < budget) {
    core.Run(budget - core.cycle());
  }
}

std::string HexDigest(uint64_t digest) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(digest));
}

// Self-contained SDC repro directory: guest sources, spec, divergence report
// and a repro.sh replaying the corruption with `msim replay` (exit 10 =
// divergence reproduced). The replay does not need machine-check delegation:
// an SDC is by definition silent, so no machine check fires on the B side.
Status HarvestSdcRepro(const CampaignOptions& options, const TrialRecord& record,
                       uint64_t trial_budget, std::string* repro_dir_name) {
  const std::string dir_name =
      StrFormat("sdc-%llu", static_cast<unsigned long long>(record.plan.index));
  std::vector<ReproFile> files = options.repro_files;
  files.push_back({"spec.txt", record.plan.spec.text + "\n"});
  const std::string script =
      ReplayScript("# Silent-data-corruption repro harvested by mcamp.\n"
                   "# Replays the campaign trial in cycle-lockstep against a clean run;\n"
                   "# exit status 10 means the divergence reproduced.\n",
                   options.repro_msim_args, "--b-inject " + ShellQuote(record.plan.spec.text),
                   trial_budget);
  MSIM_RETURN_IF_ERROR(WriteReproDir(options.out_dir, dir_name, std::move(files),
                                     record.has_divergence ? &record.divergence : nullptr,
                                     script));
  *repro_dir_name = dir_name;
  return Status::Ok();
}

void AppendOutcomeCounts(JsonWriter& json,
                         const std::array<uint64_t, kNumTrialOutcomes>& counts) {
  for (size_t i = 0; i < kNumTrialOutcomes; ++i) {
    json.Field(TrialOutcomeName(static_cast<TrialOutcome>(i)), counts[i]);
  }
}

void AppendTrialRecordJson(JsonWriter& json, const TrialRecord& record) {
  json.BeginObject();
  json.Field("trial", record.plan.index);
  json.Field("spec", record.plan.spec.text);
  json.Field("target", FaultTargetName(record.plan.spec.target));
  json.Field("inject_cycle", record.plan.spec.cycle);
  json.Field("outcome", TrialOutcomeName(record.outcome));
  json.Field("forked", record.forked);
  if (record.forked) {
    json.Field("fork_cycle", record.fork_cycle);
  }
  json.Field("detected", record.detected);
  if (record.detected) {
    json.Field("detect_cycle", record.detect_cycle);
    json.Field("detect_latency", record.detect_latency);
  }
  json.Field("halted", record.result.halted);
  json.Field("exit_code", record.result.exit_code);
  json.Field("cycles", record.result.cycles);
  json.Field("machine_checks", record.result.machine_checks);
  json.Field("arch_digest", HexDigest(record.result.arch_digest));
  if (!record.result.fatal_message.empty()) {
    json.Field("fatal_message", record.result.fatal_message);
  }
  if (!record.repro_dir.empty()) {
    json.Field("repro_dir", record.repro_dir);
  }
  if (record.has_divergence) {
    json.BeginObject("divergence");
    json.Field("diverged", record.divergence.diverged);
    json.Field("cycle", record.divergence.cycle_a);
    json.BeginArray("components");
    for (const std::string& component : record.divergence.components) {
      json.Value(component);
    }
    json.EndArray();
    json.Field("summary", record.divergence.summary);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

uint64_t ArchitecturalDigest(Core& core) {
  uint64_t h = kFnvOffsetBasis;
  for (uint8_t reg = 1; reg < 32; ++reg) {
    FnvMix(h, core.ReadReg(reg));
  }
  FnvMix(h, core.halted() ? 1 : 0);
  FnvMix(h, core.has_fatal() ? 1 : 0);
  FnvMix(h, core.exit_code());
  const std::string& console = core.console().output();
  FnvMix(h, console.size());
  for (char c : console) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

ArchOutcome CaptureArchOutcome(Core& core) {
  ArchOutcome outcome;
  outcome.halted = core.halted();
  outcome.fatal = core.has_fatal();
  outcome.exit_code = core.exit_code();
  outcome.cycles = core.cycle();
  outcome.instret = core.stats().instret;
  outcome.machine_checks = core.stats().machine_checks;
  outcome.parity_errors = core.mram().stats().parity_errors;
  outcome.words_scrubbed = core.mram().stats().words_scrubbed;
  outcome.console = core.console().output();
  outcome.fatal_message = core.fatal_status().message();
  outcome.arch_digest = ArchitecturalDigest(core);
  outcome.state_digest = core.StateDigest(/*include_dram=*/true);
  return outcome;
}

const char* TrialOutcomeName(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kMasked: return "masked";
    case TrialOutcome::kDetectedRecovered: return "detected_recovered";
    case TrialOutcome::kDetectedFatal: return "detected_fatal";
    case TrialOutcome::kSdc: return "sdc";
    case TrialOutcome::kHang: return "hang";
    case TrialOutcome::kCrash: return "crash";
  }
  return "unknown";
}

TrialOutcome ClassifyTrial(const ArchOutcome& golden, const ArchOutcome& trial) {
  if (trial.fatal) {
    // Both fatal machine-check messages (undelegated and double) name the
    // mechanism; any other fatal is an uncontrolled crash.
    return trial.fatal_message.find("machine check") != std::string::npos
               ? TrialOutcome::kDetectedFatal
               : TrialOutcome::kCrash;
  }
  if (!trial.halted) {
    return TrialOutcome::kHang;
  }
  if (trial.arch_digest == golden.arch_digest) {
    return trial.machine_checks > golden.machine_checks ? TrialOutcome::kDetectedRecovered
                                                        : TrialOutcome::kMasked;
  }
  return TrialOutcome::kSdc;
}

CampaignEngine::CampaignEngine(const CoreConfig& config, SystemSetup setup,
                               CampaignOptions options)
    : config_(config), setup_(std::move(setup)), options_(std::move(options)) {
  if (options_.targets.empty()) {
    options_.targets = {FaultTarget::kMramCode, FaultTarget::kMramData, FaultTarget::kMreg,
                        FaultTarget::kTlb,      FaultTarget::kICache,   FaultTarget::kDCache,
                        FaultTarget::kBus};
  }
  if (options_.hang_factor < 2) {
    options_.hang_factor = 2;
  }
}

CampaignEngine::~CampaignEngine() = default;

uint64_t CampaignEngine::trial_budget() const {
  return golden_.cycles * options_.hang_factor;
}

Result<std::unique_ptr<MetalSystem>> CampaignEngine::BuildSystem() const {
  auto system = std::make_unique<MetalSystem>(config_);
  if (setup_) {
    MSIM_RETURN_IF_ERROR(setup_(*system));
  }
  MSIM_RETURN_IF_ERROR(system->Boot());
  return system;
}

Status CampaignEngine::Prepare() {
  if (prepared_) {
    return Status::Ok();
  }
  const uint64_t budget =
      options_.max_cycles != 0 ? options_.max_cycles : config_.default_max_cycles;

  // Pass 1: the golden reference execution. The campaign's whole differential
  // methodology assumes a well-defined golden outcome, so anything but a
  // clean halt is a configuration error.
  MSIM_ASSIGN_OR_RETURN(std::unique_ptr<MetalSystem> system, BuildSystem());
  RunToBudget(system->core(), budget);
  if (system->core().has_fatal()) {
    return FailedPrecondition(StrFormat("golden run died fatally: %s",
                                        system->core().fatal_status().message().c_str()));
  }
  if (!system->core().halted()) {
    return FailedPrecondition(StrFormat(
        "golden run did not halt within %llu cycles; raise --max-cycles",
        static_cast<unsigned long long>(budget)));
  }
  golden_ = CaptureArchOutcome(system->core());
  if (golden_.cycles < 2) {
    return FailedPrecondition("golden run is too short to inject into (needs >= 2 cycles)");
  }

  // Pass 2: replay the golden run, snapshotting at evenly spaced fork points
  // j * C / (snapshots + 1). The replay is byte-identical to pass 1 (the
  // machine is deterministic), so the snapshots ARE golden states.
  snapshots_.clear();
  if (options_.use_forks && options_.snapshots != 0) {
    MSIM_ASSIGN_OR_RETURN(std::unique_ptr<MetalSystem> replay, BuildSystem());
    Core& core = replay->core();
    for (uint32_t j = 1; j <= options_.snapshots; ++j) {
      const uint64_t mark = golden_.cycles * j / (options_.snapshots + 1);
      if (mark == 0 || mark >= golden_.cycles ||
          (!snapshots_.empty() && mark <= snapshots_.back().first)) {
        continue;
      }
      RunToBudget(core, mark);
      if (core.halted() || core.has_fatal() || core.cycle() != mark) {
        return Internal(StrFormat(
            "golden replay desynchronized at fork mark %llu (cycle %llu)",
            static_cast<unsigned long long>(mark),
            static_cast<unsigned long long>(core.cycle())));
      }
      snapshots_.emplace_back(mark, SaveSnapshot(core));
    }
  }
  prepared_ = true;
  return Status::Ok();
}

std::vector<TrialPlan> CampaignEngine::PlanTrials() const {
  std::vector<TrialPlan> plans;
  if (!prepared_ || options_.trials == 0) {
    return plans;
  }
  plans.reserve(options_.trials);
  Rng rng(options_.seed ^ 0xCA3Bull);
  const uint64_t num_targets = options_.targets.size();
  // Live injection-cycle range: [1, C-1]. A fault at cycle >= C would never
  // fire before the (unperturbed) trial halts.
  const uint64_t cycle_lo = 1;
  const uint64_t cycle_hi = golden_.cycles - 1;
  const uint64_t span = cycle_hi - cycle_lo + 1;
  for (uint64_t i = 0; i < options_.trials; ++i) {
    TrialPlan plan;
    plan.index = i;
    const uint64_t target_slot = i % num_targets;
    const FaultTarget target = options_.targets[target_slot];
    // Stratified sampling: this target's k-th trial draws uniformly from its
    // k-th of N_t equal slices of the live range, so coverage is even over
    // the execution instead of clustering.
    const uint64_t k = i / num_targets;
    const uint64_t n_t = (options_.trials - target_slot + num_targets - 1) / num_targets;
    const uint64_t lo = cycle_lo + k * span / n_t;
    uint64_t hi = cycle_lo + (k + 1) * span / n_t - 1;
    hi = std::max(hi, lo);
    const uint64_t cycle = rng.Range(lo, std::min(hi, cycle_hi));
    uint32_t capacity = FaultTargetCapacity(target, config_);
    if (options_.max_location != 0 && options_.max_location < capacity) {
      capacity = options_.max_location;
    }
    const uint32_t location = static_cast<uint32_t>(rng.Below(capacity));
    const uint32_t bit = static_cast<uint32_t>(rng.Below(32));

    FaultSpec& spec = plan.spec;
    spec.target = target;
    spec.probabilistic = false;
    spec.cycle = cycle;
    spec.mask = 1u << bit;
    spec.mode = FaultMode::kFlip;
    if (target == FaultTarget::kBus) {
      // Bus faults have no location; the draw above keeps the RNG stream
      // uniform across targets.
      spec.has_at = false;
      spec.text = StrFormat("bus@%llu:bit=%u", static_cast<unsigned long long>(cycle), bit);
    } else {
      spec.has_at = true;
      const bool mram = target == FaultTarget::kMramCode || target == FaultTarget::kMramData;
      spec.at = mram ? location * 4 : location;  // MRAM locations are byte offsets
      spec.text = StrFormat("%s@%llu:at=%u,bit=%u", FaultTargetName(target),
                            static_cast<unsigned long long>(cycle), spec.at, bit);
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

Result<TrialRecord> CampaignEngine::RunTrial(const TrialPlan& plan, bool allow_fork) {
  if (!prepared_) {
    return FailedPrecondition("CampaignEngine::Prepare() has not run");
  }
  MSIM_RETURN_IF_ERROR(ValidateFaultSpec(plan.spec, config_, trial_budget()));

  TrialRecord record;
  record.plan = plan;

  MSIM_ASSIGN_OR_RETURN(std::unique_ptr<MetalSystem> system, BuildSystem());
  Core& core = system->core();

  FirstMcheckSink mcheck_sink;
  system->SetTraceSink(&mcheck_sink);

  // Campaign specs are fully pinned (one-shot cycle, location, mask), so
  // FaultEngine::Apply draws no RNG — the seed is irrelevant and forked and
  // cold-started trials see the identical injection.
  FaultEngine engine(0);
  engine.AddSpec(plan.spec);
  core.SetFaultEngine(&engine);

  if (allow_fork && !snapshots_.empty()) {
    // Latest fork point at or before the injection cycle. Forking at exactly
    // the injection cycle is safe: the engine's Tick runs at the top of the
    // next StepCycle, the same cycle a cold-started trial would fire at.
    const std::vector<uint8_t>* image = nullptr;
    uint64_t fork_cycle = 0;
    for (const auto& [cycle, bytes] : snapshots_) {
      if (cycle <= plan.spec.cycle) {
        image = &bytes;
        fork_cycle = cycle;
      }
    }
    if (image != nullptr) {
      MSIM_RETURN_IF_ERROR(RestoreSnapshot(core, *image));
      record.forked = true;
      record.fork_cycle = fork_cycle;
    }
  }

  RunToBudget(core, trial_budget());
  record.result = CaptureArchOutcome(core);
  record.outcome = ClassifyTrial(golden_, record.result);
  if (mcheck_sink.seen()) {
    record.detected = true;
    record.detect_cycle = mcheck_sink.cycle();
    record.detect_latency =
        record.detect_cycle >= plan.spec.cycle ? record.detect_cycle - plan.spec.cycle : 0;
  }
  return record;
}

Result<DivergenceReport> CampaignEngine::PinpointDivergence(const TrialPlan& plan) {
  if (!prepared_) {
    return FailedPrecondition("CampaignEngine::Prepare() has not run");
  }
  MSIM_ASSIGN_OR_RETURN(std::unique_ptr<MetalSystem> clean, BuildSystem());
  MSIM_ASSIGN_OR_RETURN(std::unique_ptr<MetalSystem> faulty, BuildSystem());
  FaultEngine engine(0);
  engine.AddSpec(plan.spec);
  faulty->core().SetFaultEngine(&engine);
  LockstepOptions options;
  // Identical timing configurations on both sides (the fault perturbs state,
  // not timing), so cycle granularity pinpoints the injection exactly.
  options.granularity = CompareGranularity::kCycle;
  options.max_cycles = trial_budget();
  return RunLockstep(*clean, *faulty, options);
}

Result<CampaignReport> RunCampaign(CampaignEngine& engine) {
  MSIM_RETURN_IF_ERROR(engine.Prepare());

  CampaignReport report;
  report.config = engine.config();
  report.options = engine.options();
  report.golden = engine.golden();
  report.cycle_lo = 1;
  report.cycle_hi = report.golden.cycles - 1;

  const CampaignOptions& options = engine.options();
  report.per_target.resize(options.targets.size());
  for (size_t t = 0; t < options.targets.size(); ++t) {
    report.per_target[t].target = options.targets[t];
  }

  const std::vector<TrialPlan> plans = engine.PlanTrials();
  for (const TrialPlan& plan : plans) {
    MSIM_ASSIGN_OR_RETURN(TrialRecord record, engine.RunTrial(plan));

    const size_t outcome_index = static_cast<size_t>(record.outcome);
    report.counts[outcome_index] += 1;
    if (record.forked) {
      report.forked_trials += 1;
    }
    TargetSummary& summary = report.per_target[plan.index % options.targets.size()];
    summary.trials += 1;
    summary.counts[outcome_index] += 1;
    if (record.detected) {
      summary.detect_latency.Record(record.detect_latency);
    }

    if (record.outcome == TrialOutcome::kSdc) {
      if (options.lockstep_sdc) {
        MSIM_ASSIGN_OR_RETURN(record.divergence, engine.PinpointDivergence(plan));
        record.has_divergence = true;
      }
      if (!options.out_dir.empty()) {
        MSIM_RETURN_IF_ERROR(HarvestSdcRepro(options, record, engine.trial_budget(),
                                             &record.repro_dir));
      }
      report.sdcs.push_back(record);
    }
    if (options.collect_trial_records) {
      report.trials.push_back(std::move(record));
    }
  }
  return report;
}

void WriteCampaignJson(const CampaignReport& report, std::ostream& out) {
  JsonWriter json(out);
  json.BeginObject();
  json.Field("campaign", static_cast<uint64_t>(1));

  json.BeginObject("config");
  json.Field("trials", report.options.trials);
  json.Field("seed", report.options.seed);
  json.Field("snapshots", report.options.snapshots);
  json.Field("use_forks", report.options.use_forks);
  json.Field("hang_factor", report.options.hang_factor);
  json.Field("max_location", static_cast<uint64_t>(report.options.max_location));
  json.Field("mram_parity", report.config.mram_parity);
  json.Field("watchdog_cycles", report.config.metal_watchdog_cycles);
  json.BeginArray("targets");
  for (const FaultTarget target : report.options.targets) {
    json.Value(FaultTargetName(target));
  }
  json.EndArray();
  json.EndObject();

  json.BeginObject("golden");
  json.Field("cycles", report.golden.cycles);
  json.Field("instret", report.golden.instret);
  json.Field("exit_code", report.golden.exit_code);
  json.Field("machine_checks", report.golden.machine_checks);
  json.Field("console_bytes", static_cast<uint64_t>(report.golden.console.size()));
  json.Field("arch_digest", HexDigest(report.golden.arch_digest));
  json.EndObject();

  json.BeginObject("fault_space");
  json.Field("cycle_lo", report.cycle_lo);
  json.Field("cycle_hi", report.cycle_hi);
  json.EndObject();

  uint64_t total = 0;
  for (const uint64_t count : report.counts) {
    total += count;
  }
  json.BeginObject("summary");
  json.Field("trials", total);
  AppendOutcomeCounts(json, report.counts);
  json.Field("forked", report.forked_trials);
  json.EndObject();

  json.BeginArray("per_target");
  for (const TargetSummary& summary : report.per_target) {
    json.BeginObject();
    json.Field("target", FaultTargetName(summary.target));
    json.Field("trials", summary.trials);
    AppendOutcomeCounts(json, summary.counts);
    // AVF-style rates: how often an upset in this structure mattered at all,
    // and how often it silently corrupted the architectural outcome.
    const double trials = summary.trials != 0 ? static_cast<double>(summary.trials) : 1.0;
    json.Field("vulnerability",
               static_cast<double>(summary.trials -
                                   summary.counts[static_cast<size_t>(TrialOutcome::kMasked)]) /
                   trials);
    json.Field("sdc_rate",
               static_cast<double>(summary.counts[static_cast<size_t>(TrialOutcome::kSdc)]) /
                   trials);
    json.BeginObject("detect_latency");
    summary.detect_latency.AppendJson(json);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.BeginArray("sdc");
  for (const TrialRecord& record : report.sdcs) {
    AppendTrialRecordJson(json, record);
  }
  json.EndArray();

  if (report.options.collect_trial_records) {
    json.BeginArray("trials");
    for (const TrialRecord& record : report.trials) {
      AppendTrialRecordJson(json, record);
    }
    json.EndArray();
  }

  json.EndObject();
  out << "\n";
}

void WriteCampaignText(const CampaignReport& report, std::ostream& out) {
  uint64_t total = 0;
  for (const uint64_t count : report.counts) {
    total += count;
  }
  out << StrFormat(
      "campaign: %llu trials over cycles [%llu, %llu] (golden: %llu cycles, exit %u)\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(report.cycle_lo),
      static_cast<unsigned long long>(report.cycle_hi),
      static_cast<unsigned long long>(report.golden.cycles), report.golden.exit_code);
  out << "  ";
  for (size_t i = 0; i < kNumTrialOutcomes; ++i) {
    out << StrFormat("%s=%llu ", TrialOutcomeName(static_cast<TrialOutcome>(i)),
                     static_cast<unsigned long long>(report.counts[i]));
  }
  out << StrFormat("(forked %llu)\n", static_cast<unsigned long long>(report.forked_trials));
  for (const TargetSummary& summary : report.per_target) {
    if (summary.trials == 0) {
      continue;
    }
    const double trials = static_cast<double>(summary.trials);
    out << StrFormat(
        "  %-9s  trials=%-5llu vulnerability=%.3f sdc_rate=%.3f\n",
        FaultTargetName(summary.target), static_cast<unsigned long long>(summary.trials),
        static_cast<double>(summary.trials -
                            summary.counts[static_cast<size_t>(TrialOutcome::kMasked)]) /
            trials,
        static_cast<double>(summary.counts[static_cast<size_t>(TrialOutcome::kSdc)]) / trials);
  }
  for (const TrialRecord& record : report.sdcs) {
    out << StrFormat("  SDC trial %llu: %s%s%s\n",
                     static_cast<unsigned long long>(record.plan.index),
                     record.plan.spec.text.c_str(),
                     record.repro_dir.empty() ? "" : " -> ",
                     record.repro_dir.c_str());
  }
}

}  // namespace msim
