// Workload `native_ckpt`: a non-Metal, blocked read-modify-write kernel with
// periodic checkpoints. Each job runs the kernel over a 4 MiB buffer (1024
// DRAM pages): it visits one 1 KiB block of every page in a seeded order and
// makes four passes over it, so each block stays resident in the 4 KiB data
// cache and nearly every instruction runs in superblock traces. Every
// kCheckpointCycles a SaveSnapshot is taken and restored into a fresh Core,
// whose full state digest must equal the source's. A job is one such
// checkpoint interval, so a 10 s run has enough jobs for latency percentiles.
//
// It uses the snap layer the other way round from `campaign`: saves over
// many touched pages instead of restores of a nearly empty DRAM, and it holds
// the trace tier's memory hot path. A DRAM or execution-tier change that
// helps `campaign` but costs here shows.
#include <string>

#include "asm/assembler.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "support/strings.h"

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kInputs = 2;
constexpr uint32_t kPageBytes = 4096;
constexpr uint32_t kPages = 1024;
constexpr uint32_t kBlockBytes = 1024;
constexpr uint32_t kPasses = 4;
constexpr uint32_t kBuf = 0x00200000;
constexpr uint32_t kBufBytes = kPages * kPageBytes;
// The data section is [buffer | block order table | expected checksum].
constexpr uint32_t kOrder = kBuf + kBufBytes;
constexpr uint32_t kExpect = kOrder + 4 * kPages;
// A kernel run is ~7.9 M cycles: five intervals, so a round is ten jobs.
constexpr uint64_t kCheckpointCycles = 1'600'000;
constexpr uint64_t kMaxCycles = 200'000'000;

std::string KernelSource() {
  std::string scale_and_store;
  const char* regs[] = {"a0", "a1", "a2", "a3"};
  for (const char* r : regs) {
    scale_and_store += msim::StrFormat(
        "    slli a4, %s, 1\n    add %s, %s, a4\n    add %s, %s, s2\n", r, r, r, r, r);
  }
  for (int i = 0; i < 4; ++i) {
    scale_and_store += msim::StrFormat("    sw %s, %d(t3)\n", regs[i], 4 * i);
  }
  for (const char* r : regs) {
    scale_and_store += msim::StrFormat("    add s5, s5, %s\n", r);
  }
  return msim::StrFormat(R"(
  _start:
    li s6, %u             # block order table
    li s7, %u             # blocks
    li s8, %u             # buffer
    li s5, 0              # checksum
  block:
    lw t1, 0(s6)
    add s1, t1, s8
    li s2, %u             # passes; pass p adds p to every word
  pass:
    mv t3, s1
    li t4, %u
  word:
    lw a0, 0(t3)
    lw a1, 4(t3)
    lw a2, 8(t3)
    lw a3, 12(t3)
%s
    addi t3, t3, 16
    addi t4, t4, -1
    bnez t4, word
    addi s2, s2, -1
    bnez s2, pass
    addi s6, s6, 4
    addi s7, s7, -1
    bnez s7, block
    li t0, %u
    lw t1, 0(t0)
    bne s5, t1, fail
    halt zero
  fail:
    li a0, 1
    halt a0
)",
                         kOrder, kPages, kBuf, kPasses, kBlockBytes / 16,
                         scale_and_store.c_str(), kExpect);
}

void Put32(std::vector<uint8_t>& bytes, uint32_t offset, uint32_t value) {
  for (int b = 0; b < 4; ++b) {
    bytes[offset + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

uint32_t Get32(const std::vector<uint8_t>& bytes, uint32_t offset) {
  uint32_t value = 0;
  for (int b = 0; b < 4; ++b) {
    value |= static_cast<uint32_t>(bytes[offset + b]) << (8 * b);
  }
  return value;
}

// Seeded buffer contents and block order, plus the checksum the guest must
// compute (the kernel run on the host).
msim::Section MakeData(uint64_t seed) {
  InputRng rng(seed);
  msim::Section data;
  data.base = kBuf;
  data.bytes.assign(kExpect + 4 - kBuf, 0);
  for (uint32_t off = 0; off < kBufBytes; off += 4) {
    Put32(data.bytes, off, rng.Next32());
  }
  std::vector<uint32_t> order(kPages);
  for (uint32_t page = 0; page < kPages; ++page) {
    order[page] = page * kPageBytes + static_cast<uint32_t>(rng.Below(kPageBytes / kBlockBytes)) * kBlockBytes;
  }
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(i + 1)]);
  }
  std::vector<uint8_t> buffer(data.bytes.begin(), data.bytes.begin() + kBufBytes);
  uint32_t checksum = 0;
  for (uint32_t i = 0; i < kPages; ++i) {
    Put32(data.bytes, kOrder - kBuf + 4 * i, order[i]);
    for (uint32_t pass = kPasses; pass > 0; --pass) {
      for (uint32_t off = order[i]; off < order[i] + kBlockBytes; off += 4) {
        const uint32_t x = 3 * Get32(buffer, off) + pass;
        Put32(buffer, off, x);
        checksum += x;
      }
    }
  }
  Put32(data.bytes, kExpect - kBuf, checksum);
  return data;
}

class NativeCkptWorkload : public Workload {
 public:
  explicit NativeCkptWorkload(uint64_t seed) : seed_(seed) {}

  std::string Setup(SpanRecorder& spans) override {
    msim::Program kernel;
    {
      ScopedSpan span(spans, "asm.assemble");
      msim::Result<msim::Program> program = msim::Assemble(KernelSource());
      if (!program.ok()) {
        return "assemble: " + program.status().ToString();
      }
      kernel = std::move(program).value();
    }
    programs_.clear();
    for (size_t j = 0; j < kInputs; ++j) {
      ScopedSpan span(spans, "bench.inputs");
      msim::Program program = kernel;
      program.data = MakeData(JobSeed(seed_, j));
      programs_.push_back(std::move(program));
    }
    return "";
  }

  void Rewind() override {
    system_.reset();
    input_ = 0;
    slot_ = 0;
  }

  // A job advances the current kernel run by kCheckpointCycles and then
  // checkpoints it, or, when the kernel halted, checks its exit. A round is
  // one complete kernel run per input.
  JobResult RunNextJob(SpanRecorder& spans) override {
    JobResult job;
    job.slot = slot_++;
    if (system_ == nullptr) {
      {
        ScopedSpan span(spans, "metal.construct");
        system_ = std::make_unique<msim::MetalSystem>(config_);
      }
      ScopedSpan span(spans, "metal.load");
      const msim::Status status = system_->LoadProgram(programs_[input_]);
      if (!status.ok()) {
        job.error = "load: " + status.ToString();
        EndRun(&job);
        return job;
      }
    }
    msim::Core& core = system_->core();
    const uint64_t cycles = core.cycle();
    const uint64_t instret = core.stats().instret;
    {
      ScopedSpan span(spans, "cpu.run");
      core.Run(kCheckpointCycles);
      span.set_work(core.stats().instret - instret);
    }
    job.sim_cycles = core.cycle() - cycles;
    job.sim_instructions = core.stats().instret - instret;
    job.digest = RegistryDigest(system_->metrics());
    if (!core.halted() && !core.has_fatal()) {
      job.error = core.cycle() < kMaxCycles ? Checkpoint(core, spans, &job)
                                            : "kernel did not halt";
      if (!job.error.empty()) {
        EndRun(&job);
      }
      return job;
    }
    if (core.has_fatal() || core.exit_code() != 0) {
      job.error = msim::StrFormat("kernel self-check failed (exit %u)", core.exit_code());
    } else if (spans.enabled()) {
      ScopedSpan span(spans, "bench.pages");
      job.pages_touched = PagesTouched(core, programs_[input_].data);
    }
    job.counters = ReadCounters(system_->metrics());  // the whole run's
    EndRun(&job);
    return job;
  }

  uint64_t expected_default_digest() const override { return 0x6f64f7c1fdd5bcb0ull; }

 private:
  // Saves `core`, restores the image into a fresh Core and checks that both
  // digest identically, DRAM included.
  std::string Checkpoint(msim::Core& core, SpanRecorder& spans, JobResult* job) const {
    const Clock::time_point save_start = Clock::now();
    std::vector<uint8_t> image;
    {
      ScopedSpan span(spans, "snap.save");
      image = msim::SaveSnapshot(core);
      span.set_work(image.size());
    }
    job->checkpoint_save_ms.push_back(MsSince(save_start));
    const Clock::time_point restore_start = Clock::now();
    std::unique_ptr<msim::Core> restored;
    {
      ScopedSpan span(spans, "metal.construct");
      restored = std::make_unique<msim::Core>(config_);
    }
    {
      ScopedSpan span(spans, "snap.restore");
      const msim::Status status = msim::RestoreSnapshot(*restored, image);
      if (!status.ok()) {
        return "restore: " + status.ToString();
      }
    }
    job->checkpoint_restore_ms.push_back(MsSince(restore_start));
    uint64_t source_digest = 0;
    uint64_t restored_digest = 0;
    {
      ScopedSpan span(spans, "snap.digest_dram");
      source_digest = core.StateDigest(/*include_dram=*/true);
    }
    {
      ScopedSpan span(spans, "snap.digest_dram");
      restored_digest = restored->StateDigest(/*include_dram=*/true);
    }
    if (source_digest != restored_digest) {
      return msim::StrFormat("restored core digests differently at cycle %llu",
                             static_cast<unsigned long long>(core.cycle()));
    }
    return "";
  }

  // Buffer pages whose contents the kernel changed.
  static uint64_t PagesTouched(msim::Core& core, const msim::Section& initial) {
    msim::PhysicalMemory& dram = core.bus().dram();
    uint64_t pages = 0;
    for (uint32_t page = 0; page < kPages; ++page) {
      for (uint32_t off = page * kPageBytes; off < (page + 1) * kPageBytes; off += 4) {
        if (dram.Read32(kBuf + off).value_or(0) != Get32(initial.bytes, off)) {
          ++pages;
          break;
        }
      }
    }
    return pages;
  }

  // Drops the live kernel run and moves to the next input.
  void EndRun(JobResult* job) {
    system_.reset();
    input_ = (input_ + 1) % programs_.size();
    job->round_end = input_ == 0;
    if (job->round_end) {
      slot_ = 0;
    }
  }

  const uint64_t seed_;
  const msim::CoreConfig config_{};
  std::vector<msim::Program> programs_;
  std::unique_ptr<msim::MetalSystem> system_;  // the kernel run in progress
  size_t input_ = 0;                           // its input
  size_t slot_ = 0;                            // slot of the next job
};

}  // namespace

std::unique_ptr<Workload> MakeNativeCkptWorkload(uint64_t seed) {
  return std::make_unique<NativeCkptWorkload>(seed);
}

}  // namespace perfbench
