#include "snap/diverge.h"

#include <deque>

#include "cpu/core.h"
#include "isa/decode.h"
#include "metal/system.h"
#include "snap/snapstream.h"
#include "support/strings.h"
#include "trace/json.h"

namespace msim {

namespace {

// Digest of one component's serialized state (DRAM never included here; the
// per-component breakdown is for naming the divergent unit, not for equality
// — the full-state digest decides that).
template <typename Component>
uint64_t ComponentDigest(const Component& component) {
  SnapWriter w(SnapWriter::Mode::kDigestOnly);
  component.SaveState(w);
  return w.digest();
}

void CompareComponents(Core& a, Core& b, DivergenceReport* report) {
  struct Named {
    const char* name;
    uint64_t a;
    uint64_t b;
  };
  const Named digests[] = {
      {"metal-unit", ComponentDigest(a.metal()), ComponentDigest(b.metal())},
      {"mram", ComponentDigest(a.mram()), ComponentDigest(b.mram())},
      {"tlb", ComponentDigest(a.mmu().tlb()), ComponentDigest(b.mmu().tlb())},
      {"icache", ComponentDigest(a.icache()), ComponentDigest(b.icache())},
      {"dcache", ComponentDigest(a.dcache()), ComponentDigest(b.dcache())},
      {"intc", ComponentDigest(a.intc()), ComponentDigest(b.intc())},
      {"timer", ComponentDigest(a.timer()), ComponentDigest(b.timer())},
      {"nic", ComponentDigest(a.nic()), ComponentDigest(b.nic())},
      {"console", ComponentDigest(a.console()), ComponentDigest(b.console())},
  };
  for (const Named& digest : digests) {
    if (digest.a != digest.b) {
      report->components.push_back(digest.name);
    }
  }
  if (report->components.empty()) {
    // The full digests differ but every named component matches: the delta is
    // in the core's own registers/latches.
    report->components.push_back("pipeline");
  }
}

void CompareRegisters(Core& a, Core& b, DivergenceReport* report) {
  for (uint8_t i = 0; i < 32; ++i) {
    const uint32_t va = a.ReadReg(i);
    const uint32_t vb = b.ReadReg(i);
    if (va != vb) {
      report->deltas.push_back({StrFormat("x%u", i), va, vb});
    }
  }
  for (uint8_t i = 0; i < kNumMetalRegisters; ++i) {
    const uint32_t va = a.metal().ReadMreg(i);
    const uint32_t vb = b.metal().ReadMreg(i);
    if (va != vb) {
      report->deltas.push_back({StrFormat("m%u", i), va, vb});
    }
  }
  for (uint32_t i = 0; i < kCrCount; ++i) {
    const uint32_t va =
        a.metal().ReadCreg(i, a.cycle(), a.stats().instret, a.intc().pending());
    const uint32_t vb =
        b.metal().ReadCreg(i, b.cycle(), b.stats().instret, b.intc().pending());
    if (va != vb) {
      report->deltas.push_back({StrFormat("c%u", i), va, vb});
    }
  }
  if (a.fetch_pc() != b.fetch_pc()) {
    report->deltas.push_back({"pc", a.fetch_pc(), b.fetch_pc()});
  }
  if (a.metal_mode() != b.metal_mode()) {
    report->deltas.push_back({"metal_mode", a.metal_mode() ? 1u : 0u, b.metal_mode() ? 1u : 0u});
  }
  if (a.halted() != b.halted()) {
    report->deltas.push_back({"halted", a.halted() ? 1u : 0u, b.halted() ? 1u : 0u});
  }
  if (a.exit_code() != b.exit_code()) {
    report->deltas.push_back({"exit_code", a.exit_code(), b.exit_code()});
  }
}

bool Finished(const Core& core) { return core.halted() || core.has_fatal(); }

Result<DivergenceReport> RunCycleLockstep(MetalSystem& sys_a, MetalSystem& sys_b,
                                          uint64_t max_cycles) {
  Core& a = sys_a.core();
  Core& b = sys_b.core();
  DivergenceReport report;
  report.granularity = CompareGranularity::kCycle;

  for (uint64_t step = 0; step <= max_cycles; ++step) {
    if (a.StateDigest() != b.StateDigest()) {
      report.diverged = true;
      report.cycle_a = a.cycle();
      report.cycle_b = b.cycle();
      report.a_finished = Finished(a);
      report.b_finished = Finished(b);
      CompareComponents(a, b, &report);
      CompareRegisters(a, b, &report);
      std::string components;
      for (const std::string& component : report.components) {
        if (!components.empty()) {
          components += ",";
        }
        components += component;
      }
      report.summary = StrFormat("states diverge at cycle %llu (components: %s)",
                                 static_cast<unsigned long long>(report.cycle_a),
                                 components.c_str());
      return report;
    }
    if (Finished(a) && Finished(b)) {
      report.a_finished = true;
      report.b_finished = true;
      report.summary = StrFormat("no divergence: both machines finished at cycle %llu",
                                 static_cast<unsigned long long>(a.cycle()));
      return report;
    }
    if (step == max_cycles) {
      break;
    }
    a.StepCycle();
    b.StepCycle();
  }
  report.summary = StrFormat("no divergence within %llu cycles",
                             static_cast<unsigned long long>(max_cycles));
  return report;
}

bool IsTransitionRetire(uint32_t raw) {
  const InstrKind kind = DecodeInstr(raw).kind;
  return kind == InstrKind::kMenter || kind == InstrKind::kMexit;
}

Result<DivergenceReport> RunRetireLockstep(MetalSystem& sys_a, MetalSystem& sys_b,
                                           const LockstepOptions& options,
                                           uint64_t max_cycles) {
  Core& a = sys_a.core();
  Core& b = sys_b.core();
  DivergenceReport report;
  report.granularity = CompareGranularity::kRetire;

  std::deque<RetireRecord> ra;
  std::deque<RetireRecord> rb;
  const bool drop_transitions = options.ignore_transition_retires;
  auto collect = [drop_transitions](std::deque<RetireRecord>* into) {
    return [into, drop_transitions](const Core::RetireEvent& event) {
      if (drop_transitions && IsTransitionRetire(event.raw)) {
        return;
      }
      into->push_back({event.cycle, event.pc, event.raw, event.metal});
    };
  };
  a.SetRetireTrace(collect(&ra));
  b.SetRetireTrace(collect(&rb));
  // The collectors capture stack state; never leave them attached.
  struct TraceGuard {
    Core& a;
    Core& b;
    ~TraceGuard() {
      a.SetRetireTrace({});
      b.SetRetireTrace({});
    }
  } guard{a, b};

  const uint64_t start_a = a.cycle();
  const uint64_t start_b = b.cycle();
  // Each core advances through Core::Run, so a fast_step core takes exactly
  // the stepping path of a plain run (traces and the device horizon — that
  // is the whole point of the fast-vs-slow oracle) and a per-cycle core
  // stays the reference. The retire bound keeps the record deques small.
  auto pump = [max_cycles](Core& core, std::deque<RetireRecord>& records,
                           uint64_t start) {
    while (records.empty() && !Finished(core) && core.cycle() - start < max_cycles) {
      core.Run(max_cycles - (core.cycle() - start), /*max_retires=*/1024);
    }
    return !records.empty();
  };

  uint64_t matched = 0;
  while (true) {
    const bool have_a = pump(a, ra, start_a);
    const bool have_b = pump(b, rb, start_b);
    if (!have_a || !have_b) {
      if (have_a != have_b) {
        // One stream ended early: a length divergence.
        report.diverged = true;
        report.retire_index = matched;
        report.cycle_a = a.cycle();
        report.cycle_b = b.cycle();
        report.a_finished = Finished(a);
        report.b_finished = Finished(b);
        report.has_retires = have_a || have_b;
        if (have_a) {
          report.retire_a = ra.front();
        }
        if (have_b) {
          report.retire_b = rb.front();
        }
        CompareRegisters(a, b, &report);
        report.summary = StrFormat(
            "retire streams diverge in length after %llu matching instructions "
            "(%s retires more)",
            static_cast<unsigned long long>(matched), have_a ? "A" : "B");
        return report;
      }
      break;  // both ended
    }
    const RetireRecord& head_a = ra.front();
    const RetireRecord& head_b = rb.front();
    const bool compare_pc = !(options.metal_pc_insensitive && head_a.metal && head_b.metal);
    const bool equal = head_a.raw == head_b.raw && head_a.metal == head_b.metal &&
                       (!compare_pc || head_a.pc == head_b.pc);
    if (!equal) {
      report.diverged = true;
      report.retire_index = matched;
      report.cycle_a = head_a.cycle;
      report.cycle_b = head_b.cycle;
      report.has_retires = true;
      report.retire_a = head_a;
      report.retire_b = head_b;
      CompareRegisters(a, b, &report);
      report.summary = StrFormat(
          "retire streams diverge at instruction %llu (A: pc=0x%08x raw=0x%08x, "
          "B: pc=0x%08x raw=0x%08x)",
          static_cast<unsigned long long>(matched), head_a.pc, head_a.raw, head_b.pc,
          head_b.raw);
      return report;
    }
    ra.pop_front();
    rb.pop_front();
    ++matched;
  }

  // Streams matched to the end; the final architectural outcome must agree
  // too (exit code and console output are the program's observable result).
  if (a.exit_code() != b.exit_code() || a.halted() != b.halted() ||
      a.console().output() != b.console().output()) {
    report.diverged = true;
    report.retire_index = matched;
    report.cycle_a = a.cycle();
    report.cycle_b = b.cycle();
    report.a_finished = Finished(a);
    report.b_finished = Finished(b);
    CompareRegisters(a, b, &report);
    report.summary = StrFormat(
        "retire streams match (%llu instructions) but final outcomes differ "
        "(exit %u vs %u)",
        static_cast<unsigned long long>(matched), a.exit_code(), b.exit_code());
    return report;
  }
  report.retire_index = matched;
  report.a_finished = Finished(a);
  report.b_finished = Finished(b);
  report.summary = StrFormat("no divergence: %llu retired instructions match",
                             static_cast<unsigned long long>(matched));
  return report;
}

}  // namespace

Result<DivergenceReport> RunLockstep(MetalSystem& a, MetalSystem& b,
                                     const LockstepOptions& options) {
  MSIM_RETURN_IF_ERROR(a.Boot());
  MSIM_RETURN_IF_ERROR(b.Boot());
  const uint64_t max_cycles = options.max_cycles != 0
                                  ? options.max_cycles
                                  : a.core().config().default_max_cycles;
  if (options.granularity == CompareGranularity::kCycle) {
    return RunCycleLockstep(a, b, max_cycles);
  }
  return RunRetireLockstep(a, b, options, max_cycles);
}

namespace {

void WriteRetireRecord(JsonWriter& json, const char* key, const RetireRecord& record) {
  json.BeginObject(key);
  json.Field("cycle", record.cycle);
  json.Field("pc", StrFormat("0x%08x", record.pc));
  json.Field("raw", StrFormat("0x%08x", record.raw));
  json.Field("metal", record.metal);
  json.EndObject();
}

}  // namespace

void WriteDivergenceJson(const DivergenceReport& report, std::ostream& out) {
  JsonWriter json(out);
  json.BeginObject();
  json.Field("diverged", report.diverged);
  json.Field("granularity",
             report.granularity == CompareGranularity::kCycle ? "cycle" : "retire");
  json.Field("summary", report.summary);
  json.Field("cycle_a", report.cycle_a);
  json.Field("cycle_b", report.cycle_b);
  json.Field("retire_index", report.retire_index);
  json.Field("a_finished", report.a_finished);
  json.Field("b_finished", report.b_finished);
  json.BeginArray("components");
  for (const std::string& component : report.components) {
    json.Value(component);
  }
  json.EndArray();
  json.BeginArray("deltas");
  for (const RegDelta& delta : report.deltas) {
    json.BeginObject();
    json.Field("reg", delta.name);
    json.Field("a", StrFormat("0x%08x", delta.a));
    json.Field("b", StrFormat("0x%08x", delta.b));
    json.EndObject();
  }
  json.EndArray();
  if (report.has_retires) {
    WriteRetireRecord(json, "retire_a", report.retire_a);
    WriteRetireRecord(json, "retire_b", report.retire_b);
  }
  json.EndObject();
  out << "\n";
}

void WriteDivergenceText(const DivergenceReport& report, std::ostream& out) {
  out << (report.diverged ? "DIVERGENCE: " : "ok: ") << report.summary << "\n";
  if (!report.diverged) {
    return;
  }
  if (report.has_retires) {
    out << StrFormat("  A retired pc=0x%08x raw=0x%08x cycle=%llu%s\n", report.retire_a.pc,
                     report.retire_a.raw,
                     static_cast<unsigned long long>(report.retire_a.cycle),
                     report.retire_a.metal ? " [metal]" : "");
    out << StrFormat("  B retired pc=0x%08x raw=0x%08x cycle=%llu%s\n", report.retire_b.pc,
                     report.retire_b.raw,
                     static_cast<unsigned long long>(report.retire_b.cycle),
                     report.retire_b.metal ? " [metal]" : "");
  }
  for (const std::string& component : report.components) {
    out << "  component: " << component << "\n";
  }
  for (const RegDelta& delta : report.deltas) {
    out << StrFormat("  %-10s A=0x%08x B=0x%08x\n", delta.name.c_str(), delta.a, delta.b);
  }
}

}  // namespace msim
