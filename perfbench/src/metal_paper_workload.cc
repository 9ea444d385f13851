// Workload `metal_paper`: the paper's own Metal-mode workloads, one fresh
// machine per guest run. Each job runs, in turn,
//   * an STM guest (§3.3): read-modify-write transactions of seeded sizes
//     whose loads and stores are intercepted into the tread/twrite
//     mroutines, with seeded conflicting commits from a simulated remote
//     writer between run chunks; and then
//   * a custom-page-table guest (§3.2): a seeded page permutation over twice
//     as many pages as the 32-entry TLB holds, so every access TLB-misses
//     and the mcode radix walker refills it.
// Nearly all of the job time is the per-cycle Metal path in the cpu layer;
// the snap layer does nothing. This is where Metal code entering the fast
// execution tiers shows.
#include <array>
#include <string>

#include "asm/assembler.h"
#include "cpu/creg.h"
#include "ext/cpt.h"
#include "ext/stm.h"
#include "metal/loader.h"
#include "metal/system.h"
#include "support/strings.h"

#include "bench.h"

namespace perfbench {
namespace {

using msim::StmExtension;

constexpr size_t kJobsPerRound = 5;
constexpr uint64_t kMaxCycles = 50'000'000;

// STM guest: kTransactions transactions; transaction t increments shared
// words [0, size[t]). Sizes are a seeded shuffle of an even mix of 1..8, so
// every seed does the same amount of transactional work.
constexpr uint32_t kClockAddr = 0x00700000;
constexpr uint32_t kVtblAddr = 0x00704000;
constexpr uint32_t kVtblWords = 1024;
constexpr uint32_t kShared = 0x00600000;
// The remote writer stores to kRemote + 4w, which shares word w's version
// slot: it conflicts with transactions that read word w without changing the
// shared words, so their final values stay checkable.
constexpr uint32_t kRemote = kShared + 4 * kVtblWords;
constexpr uint32_t kMaxTxWords = 8;
constexpr uint32_t kTransactions = 800;
constexpr uint64_t kChunk = 400;        // cycles between remote-commit draws
constexpr uint64_t kConflictOneIn = 10;  // remote commit probability per chunk

// Page-table guest: kRounds passes over kPages pages in a seeded stride
// order, one read-modify-write of a seeded word per page visit.
constexpr uint32_t kPages = 64;
constexpr uint32_t kRounds = 100;
constexpr uint32_t kDataBase = 0x00800000;
constexpr uint32_t kTableRegion = 0x00400000;
constexpr uint32_t kTableRegionSize = 0x00100000;
constexpr uint32_t kTextPages = 16;

// One job: an STM guest run, then a page-table guest run, each on a fresh
// machine. Pairing them keeps the job-latency distribution unimodal.
struct JobSpec {
  msim::Program stm;
  uint64_t conflict_seed = 0;
  std::array<uint32_t, kMaxTxWords> expected_shared{};  // word w = #tx with size > w
  msim::Program page_tables;
  uint32_t word_offset = 0;
};

std::string StmSource(const std::vector<uint32_t>& sizes) {
  std::string source = msim::StrFormat(R"(
  _start:
    la s3, sizes
    li s0, %u
  next_tx:
    lw s1, 0(s3)           # words in this transaction, read outside it
    la a0, on_abort
    menter %u              # tstart
    li t5, %u
  rmw:
    lw t6, 0(t5)
    addi t6, t6, 1
    sw t6, 0(t5)
    addi t5, t5, 4
    addi s1, s1, -1
    bnez s1, rmw
    menter %u              # tcommit; an abort resumes at on_abort
    addi s3, s3, 4
    addi s0, s0, -1
    bnez s0, next_tx
    halt zero
  on_abort:
    j next_tx
    .data
  sizes:
)",
                                       kTransactions, StmExtension::kTstartEntry, kShared,
                                       StmExtension::kTcommitEntry);
  for (size_t i = 0; i < sizes.size(); ++i) {
    source += (i % 16 == 0 ? "\n    .word " : ", ") + std::to_string(sizes[i]);
  }
  return source + "\n";
}

std::string PageTableSource(uint32_t start, uint32_t stride, uint32_t word_offset) {
  return msim::StrFormat(R"(
  _start:
    li s0, %u
    li s4, %u
  round:
    li s1, %u
  touch:
    slli t0, s4, 12
    li t1, %u
    add t0, t0, t1
    lw t2, 0(t0)
    addi t2, t2, 1
    sw t2, 0(t0)
    addi s4, s4, %u
    andi s4, s4, %u
    addi s1, s1, -1
    bnez s1, touch
    addi s0, s0, -1
    bnez s0, round
    halt zero
)",
                         kRounds, start, kPages, kDataBase + word_offset, stride, kPages - 1);
}

class MetalPaperWorkload : public Workload {
 public:
  explicit MetalPaperWorkload(uint64_t seed) : seed_(seed) {}

  std::string Setup(SpanRecorder& spans) override {
    jobs_.clear();
    for (size_t j = 0; j < kJobsPerRound; ++j) {
      InputRng rng(JobSeed(seed_, j));
      JobSpec spec;
      std::vector<uint32_t> sizes(kTransactions);
      for (uint32_t t = 0; t < kTransactions; ++t) {
        sizes[t] = 1 + t % kMaxTxWords;
      }
      for (size_t t = sizes.size() - 1; t > 0; --t) {
        std::swap(sizes[t], sizes[rng.Below(t + 1)]);
      }
      for (const uint32_t size : sizes) {
        for (uint32_t w = 0; w < size; ++w) {
          ++spec.expected_shared[w];
        }
      }
      spec.conflict_seed = rng.Next64();
      const uint32_t start = static_cast<uint32_t>(rng.Below(kPages));
      const uint32_t stride = 2 * static_cast<uint32_t>(rng.Below(kPages / 2)) + 1;
      spec.word_offset = 4 * static_cast<uint32_t>(rng.Below(1024));
      ScopedSpan span(spans, "asm.assemble");
      for (auto [source, program] :
           {std::pair{StmSource(sizes), &spec.stm},
            std::pair{PageTableSource(start, stride, spec.word_offset), &spec.page_tables}}) {
        msim::Result<msim::Program> assembled = msim::Assemble(source);
        if (!assembled.ok()) {
          return "assemble: " + assembled.status().ToString();
        }
        *program = std::move(assembled).value();
      }
      jobs_.push_back(std::move(spec));
    }
    return "";
  }

  void Rewind() override { next_ = 0; }

  JobResult RunNextJob(SpanRecorder& spans) override {
    JobResult job;
    job.slot = next_;
    next_ = (next_ + 1) % jobs_.size();
    job.round_end = next_ == 0;
    job.digest = kFnvBasis;
    for (const bool stm : {true, false}) {
      job.error = RunGuest(jobs_[job.slot], stm, spans, &job);
      if (!job.error.empty()) {
        break;
      }
    }
    return job;
  }

  uint64_t expected_default_digest() const override { return 0xd2ed3a07b545664aull; }

 private:
  // Runs one guest of `spec` on a fresh machine, checks it and adds its
  // statistics to `job`.
  static std::string RunGuest(const JobSpec& spec, bool stm, SpanRecorder& spans,
                              JobResult* job) {
    std::unique_ptr<msim::MetalSystem> system;
    {
      ScopedSpan span(spans, "metal.construct");
      system = std::make_unique<msim::MetalSystem>();
    }
    msim::Core& core = system->core();
    {
      ScopedSpan span(spans, "ext.host_setup");
      const msim::Status status =
          stm ? StmExtension::Install(*system, kClockAddr, kVtblAddr, kVtblWords)
              : msim::CustomPageTable::Install(*system, 0);
      if (!status.ok()) {
        return "install: " + status.ToString();
      }
    }
    {
      ScopedSpan span(spans, "metal.load");
      const msim::Status status = system->LoadProgram(stm ? spec.stm : spec.page_tables);
      if (!status.ok()) {
        return "load: " + status.ToString();
      }
    }
    {
      ScopedSpan span(spans, "metal.boot");
      const msim::Status status = system->Boot();
      if (!status.ok()) {
        return "boot: " + status.ToString();
      }
    }
    std::string error;
    std::array<uint32_t, kMaxTxWords> remote_commits{};
    if (stm) {
      ScopedSpan span(spans, "cpu.run");
      // Remote commits are three host-side DRAM writes between chunks; they
      // stay inside the run span.
      InputRng rng(spec.conflict_seed);
      while (!core.halted() && !core.has_fatal() && core.cycle() < kMaxCycles) {
        core.Run(kChunk);
        if (!core.halted() && rng.Below(kConflictOneIn) == 0) {
          const uint32_t w = static_cast<uint32_t>(rng.Below(kMaxTxWords));
          const msim::Status status = StmExtension::InjectRemoteCommit(
              core, kClockAddr, kVtblAddr, kVtblWords, kRemote + 4 * w, ++remote_commits[w]);
          if (!status.ok()) {
            return "remote commit: " + status.ToString();
          }
        }
      }
      span.set_work(core.stats().instret);
    } else {
      {
        ScopedSpan span(spans, "ext.page_tables");
        error = BuildPageTables(core);
        if (!error.empty()) {
          return error;
        }
      }
      ScopedSpan span(spans, "cpu.run");
      core.Run(kMaxCycles);
      span.set_work(core.stats().instret);
    }
    {
      ScopedSpan span(spans, "ext.readback");
      error = stm ? CheckStm(core, spec, remote_commits) : CheckPageTables(core, spec);
    }
    const SimCounters counters = ReadCounters(system->metrics());
    job->counters.Add(counters);
    job->sim_cycles += counters.cycles;
    job->sim_instructions += counters.instret;
    FnvMix(job->digest, RegistryDigest(system->metrics()));
    return error;
  }

  static std::string BuildPageTables(msim::Core& core) {
    msim::CustomPageTable cpt(core, kTableRegion, kTableRegionSize);
    msim::Result<uint32_t> root = cpt.CreateAddressSpace();
    if (!root.ok()) {
      return "page tables: " + root.status().ToString();
    }
    msim::Status status = msim::Status::Ok();
    for (uint32_t page = 0; page < kTextPages && status.ok(); ++page) {
      status = cpt.Map(root.value(), page * 4096, page * 4096,
                       msim::kPteR | msim::kPteW | msim::kPteX);
    }
    for (uint32_t page = 0; page < kPages && status.ok(); ++page) {
      const uint32_t addr = kDataBase + page * 4096;
      status = cpt.Map(root.value(), addr, addr, msim::kPteR | msim::kPteW);
    }
    if (status.ok()) {
      status = cpt.Activate(root.value());
    }
    if (!status.ok()) {
      return "page tables: " + status.ToString();
    }
    core.metal().WriteCreg(msim::kCrPgEnable, 1);
    return "";
  }

  static std::string CheckExit(msim::Core& core) {
    if (core.has_fatal()) {
      return "guest died: " + core.fatal_status().message();
    }
    if (!core.halted() || core.exit_code() != 0) {
      return msim::StrFormat("guest did not exit 0 (halted=%d, exit=%u)", core.halted(),
                             core.exit_code());
    }
    return "";
  }

  static std::string CheckStm(msim::Core& core, const JobSpec& spec,
                              const std::array<uint32_t, kMaxTxWords>& remote_commits) {
    std::string error = CheckExit(core);
    if (!error.empty()) {
      return error;
    }
    const msim::Result<uint32_t> commits = StmExtension::Commits(core);
    if (!commits.ok() || commits.value() != kTransactions) {
      return msim::StrFormat("STM committed %u transactions, want %u",
                             commits.ok() ? commits.value() : 0u, kTransactions);
    }
    msim::PhysicalMemory& dram = core.bus().dram();
    for (uint32_t w = 0; w < kMaxTxWords; ++w) {
      if (dram.Read32(kShared + 4 * w).value_or(~0u) != spec.expected_shared[w]) {
        return msim::StrFormat("shared word %u holds the wrong count", w);
      }
      if (dram.Read32(kRemote + 4 * w).value_or(~0u) != remote_commits[w]) {
        return msim::StrFormat("remote word %u was overwritten", w);
      }
    }
    return "";
  }

  static std::string CheckPageTables(msim::Core& core, const JobSpec& spec) {
    std::string error = CheckExit(core);
    if (!error.empty()) {
      return error;
    }
    msim::PhysicalMemory& dram = core.bus().dram();
    for (uint32_t page = 0; page < kPages; ++page) {
      if (dram.Read32(kDataBase + page * 4096 + spec.word_offset).value_or(0) != kRounds) {
        return msim::StrFormat("page %u was not visited %u times", page, kRounds);
      }
    }
    // Every data access misses a TLB smaller than the page set; the text
    // page's own refills add at most one fill per TLB's worth of inserts.
    const msim::Result<uint32_t> fills = 
        msim::ReadHandlerData32(core, msim::CustomPageTable::kDataFillCount);
    const uint64_t accesses = static_cast<uint64_t>(kRounds) * kPages;
    const uint64_t entries = core.config().tlb_entries;
    if (!fills.ok() || kPages <= entries || fills.value() < accesses ||
        fills.value() > accesses + accesses / (entries - 1) + kTextPages) {
      return msim::StrFormat("walker filled the TLB %u times for %llu accesses",
                             fills.ok() ? fills.value() : 0u,
                             static_cast<unsigned long long>(accesses));
    }
    return "";
  }

  const uint64_t seed_;
  std::vector<JobSpec> jobs_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMetalPaperWorkload(uint64_t seed) {
  return std::make_unique<MetalPaperWorkload>(seed);
}

}  // namespace perfbench
