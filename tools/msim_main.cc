// msim — command-line front end for the Metal simulator.
//
// Usage:
//   msim run <program.s> [--mcode file.s]... [options]   assemble + simulate
//   msim asm <file.s>                                    assemble + disassemble
//   msim table2                                          print paper Table 2
//
// Options for `run`:
//   --mcode FILE        install an mcode module (repeatable)
//   --storage MODE      mram | dram-cached | dram-uncached
//   --no-fast           disable decode-stage menter/mexit replacement
//   --max-cycles N        simulation budget (default 50M)
//   --trace-stats         print detailed pipeline statistics
//   --trace [N]           print the first N retired instructions (default 200)
//   --stats-json FILE     write run result + counters + latency histograms as JSON
//   --trace-json FILE     record structured events, export a span-aware Chrome
//                         trace JSON (causal flow arrows between spans)
//   --profile-mroutines   print per-mroutine cycle/instret breakdown
//
// Observability options (docs/observability.md):
//   --metrics-every N     sample the metric registry every N machine cycles
//                         (requires --metrics-jsonl; marks are absolute-cycle
//                         multiples, the same contract as checkpoints)
//   --metrics-jsonl FILE  streaming time-series output, one JSON object/line
//   --flight-events K     flight-recorder capacity (default 256; the recorder
//                         is armed whenever --crash-dump is given)
//
// Robustness options (docs/robustness.md):
//   --inject SPEC         inject a fault (repeatable; see src/fault/fault.h).
//                         Specs are validated against the machine: an
//                         out-of-range location, a zero-width mask or a
//                         one-shot trigger beyond the cycle budget exits 2
//   --list-fault-targets  print the fault-spec grammar and each target's
//                         valid ranges, then exit 0
//   --fault-seed N        seed for the fault-injection RNG (default 0)
//   --watchdog N          Metal-mode watchdog budget in cycles (0 = off)
//   --no-parity           disable the MRAM parity model
//   --crash-dump FILE     write a crash-dump JSON at end of run
//
// Determinism options (docs/determinism.md):
//   --checkpoint-every N  save a snapshot every N cycles (requires
//                         --checkpoint-dir; files: checkpoint-<cycle>.msnap)
//   --checkpoint-dir D    directory for checkpoint files
//   --restore FILE        resume from a snapshot (version/config validated)
//
//   msim replay <program.s> [run options] --until-divergence [replay options]
//     runs configuration A (the shared run options) in lockstep against a
//     second configuration B derived from it (--b-storage / --b-fast /
//     --b-no-fast / --b-no-fast-step / --b-inject / --b-fault-seed) and
//     reports the first divergence. Exit: 0 = identical, 10 = divergence, 2 = usage, 1 = error.
//
// Malformed numeric arguments exit with status 2. The program's exit code
// (from `halt rs1`) becomes the process exit code; every other outcome uses
// the shared table in src/support/exit_codes.h — 11 fatal simulation fault,
// 12 guest cycle budget exhausted, 13 evicted (SIGTERM/SIGINT wrote a final
// checkpoint when --checkpoint-dir is configured and flushed all artifacts,
// docs/robustness.md "Fleet supervision"). Human-readable output
// (status lines, statistics, profiles) goes to stderr; stdout carries only
// the simulated program's console output; JSON artifacts go to their own
// files — so piping stdout or a JSON file never picks up log interleaving.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "cpu/core.h"
#include "fault/crash_dump.h"
#include "fault/fault.h"
#include "isa/disasm.h"
#include "metal/machine_spec.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "snap/snapshot.h"
#include "snap/snapstream.h"
#include "support/exit_codes.h"
#include "support/strings.h"
#include "synth/designs.h"
#include "trace/flight.h"
#include "trace/json.h"
#include "trace/metrics.h"
#include "trace/profiler.h"
#include "trace/sampler.h"
#include "trace/span.h"
#include "trace/trace.h"

using namespace msim;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  msim run <program.s> [--mcode file.s]... [--storage mram|dram-cached|"
               "dram-uncached]\n"
               "           [--no-fast] [--no-fast-step] [--max-cycles N]\n"
               "           [--trace-stats] [--trace [N]]\n"
               "           [--stats-json FILE] [--trace-json FILE] [--profile-mroutines]\n"
               "           [--inject SPEC]... [--list-fault-targets] [--fault-seed N]\n"
               "           [--watchdog N] [--no-parity]\n"
               "           [--crash-dump FILE] [--flight-events K]\n"
               "           [--metrics-every N --metrics-jsonl FILE]\n"
               "           [--checkpoint-every N --checkpoint-dir D] [--restore FILE]\n"
               "  msim replay <program.s> [run options] --until-divergence\n"
               "           [--compare auto|cycle|retire] [--b-storage MODE] [--b-fast|"
               "--b-no-fast]\n"
               "           [--b-fast-step|--b-no-fast-step]\n"
               "           [--b-inject SPEC]... [--b-fault-seed N] [--divergence-json FILE]\n"
               "  msim asm <file.s>\n"
               "  msim table2\n");
  return kExitUsage;
}

const char* ReasonName(RunResult::Reason reason) {
  switch (reason) {
    case RunResult::Reason::kHalted: return "halted";
    case RunResult::Reason::kCycleLimit: return "cycle-limit";
    case RunResult::Reason::kFatal: return "fatal";
  }
  return "unknown";
}

// Graceful stop (docs/robustness.md "Fleet supervision"): SIGTERM/SIGINT set
// a flag the run loop polls at chunk boundaries. The run then writes a final
// checkpoint (when checkpointing is configured), flushes every requested
// artifact, and exits kExitEvicted — so a supervisor's evict is lossless.
volatile std::sig_atomic_t g_stop_signal = 0;

void HandleStopSignal(int sig) { g_stop_signal = sig; }

void InstallStopHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

// How often the run loop surfaces from Core::Run to poll g_stop_signal when
// no checkpoint/metrics mark is nearer. Chunking does not change simulation
// results (the CI determinism job proves chunked == straight byte-for-byte),
// so this only bounds stop latency, ~1 ms of host time per chunk.
constexpr uint64_t kSignalPollCycles = 1u << 16;

// Enumerates the core's MetricRegistry instead of hand-copying struct fields;
// every counter any component registered shows up here automatically. Written
// to stderr with the rest of the human-readable reporting: stdout is reserved
// for the simulated program's console output.
void PrintStats(Core& core) {
  const CoreStats& stats = core.stats();
  std::fprintf(stderr, "--- pipeline statistics ---\n");
  std::fprintf(stderr, "IPC %.3f (%llu instructions / %llu cycles)\n",
               stats.cycles ? (double)stats.instret / stats.cycles : 0.0,
               (unsigned long long)stats.instret, (unsigned long long)stats.cycles);
  std::ostringstream text;
  core.metrics().WriteText(text);
  std::fputs(text.str().c_str(), stderr);
}

bool WriteStatsJson(MetalSystem& system, const RunResult& result, const char* reason_name,
                    const std::string& program_path, const MroutineProfiler* profiler,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  JsonWriter json(out);
  json.BeginObject();
  json.Field("program", program_path);
  json.BeginObject("result");
  json.Field("reason", reason_name);
  json.Field("exit_code", result.exit_code);
  // Absolute machine cycles (not this invocation's delta), so a straight run
  // and a run restored from a mid-execution checkpoint report byte-identical
  // JSON (docs/determinism.md).
  json.Field("cycles", system.core().cycle());
  json.Field("instret", result.instret);
  json.EndObject();
  json.BeginObject("metrics");
  system.metrics().AppendJson(json);
  json.EndObject();
  // Latency distributions (trace/histogram.h): per-event-class service
  // latencies with p50/p90/p99/max, registered by the span sink.
  json.BeginObject("histograms");
  system.metrics().AppendHistogramsJson(json);
  json.EndObject();
  if (profiler != nullptr) {
    json.BeginObject("mroutine_profile");
    profiler->AppendJson(json, system.core().stats().cycles);
    json.EndObject();
  }
  json.EndObject();
  out << "\n";
  return out.good();
}

bool WriteTraceJson(const RingBufferSink& ring, const SpanSink* spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  if (ring.dropped() != 0) {
    std::fprintf(stderr, "[trace] ring buffer dropped %llu of %llu events\n",
                 (unsigned long long)ring.dropped(), (unsigned long long)ring.total());
  }
  if (spans != nullptr) {
    ExportChromeTraceWithSpans(ring.Events(), spans->Spans(), out);
  } else {
    ExportChromeTrace(ring.Events(), out);
  }
  return out.good();
}

// Reads the spec's files once and installs them into every given system.
// Exit status 1 on failure, 0 on success.
int InstallMachine(const MachineSpec& spec, std::initializer_list<MetalSystem*> systems) {
  auto sources = ReadMachineSources(spec);
  if (!sources.ok()) {
    std::fprintf(stderr, "%s\n", sources.status().ToString().c_str());
    return 1;
  }
  for (MetalSystem* system : systems) {
    if (Status status = InstallSources(*sources, *system); !status.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.program.c_str(), status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int CmdRun(const std::vector<std::string>& args) {
  MachineSpec spec;
  const CoreConfig& config = spec.config;
  uint64_t max_cycles = 0;
  bool trace_stats = false;
  uint64_t trace_limit = 0;
  std::string stats_json_path;
  std::string trace_json_path;
  bool profile_mroutines = false;
  std::string crash_dump_path;
  uint64_t flight_events = FlightRecorder::kDefaultCapacity;
  uint64_t metrics_every = 0;
  std::string metrics_jsonl_path;
  uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  std::string restore_path;
  bool list_fault_targets = false;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto machine_flag = ParseMachineFlag(args, &i, kMachineFlags, &spec);
    if (!machine_flag.ok()) {
      std::fprintf(stderr, "%s\n", machine_flag.status().message().c_str());
      return 2;
    }
    if (*machine_flag) {
      continue;
    }
    if (arg == "--max-cycles" && i + 1 < args.size()) {
      if (!ParseU64Flag("--max-cycles", args[++i], &max_cycles)) {
        return 2;
      }
    } else if (arg == "--list-fault-targets") {
      list_fault_targets = true;
    } else if (arg == "--crash-dump" && i + 1 < args.size()) {
      crash_dump_path = args[++i];
    } else if (arg == "--flight-events" && i + 1 < args.size()) {
      if (!ParseU64Flag("--flight-events", args[++i], &flight_events)) {
        return 2;
      }
      if (flight_events == 0 || flight_events > (1u << 20)) {
        std::fprintf(stderr,
                     "invalid value for --flight-events: %llu (want 1..%u)\n",
                     (unsigned long long)flight_events, 1u << 20);
        return 2;
      }
    } else if (arg == "--metrics-every" && i + 1 < args.size()) {
      if (!ParseU64Flag("--metrics-every", args[++i], &metrics_every)) {
        return 2;
      }
      if (metrics_every == 0) {
        std::fprintf(stderr, "invalid value for --metrics-every: 0 (want a cycle interval >= 1)\n");
        return 2;
      }
    } else if (arg == "--metrics-jsonl" && i + 1 < args.size()) {
      metrics_jsonl_path = args[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < args.size()) {
      if (!ParseU64Flag("--checkpoint-every", args[++i], &checkpoint_every)) {
        return 2;
      }
      if (checkpoint_every == 0) {
        std::fprintf(stderr, "invalid value for --checkpoint-every: 0 (want a cycle interval >= 1)\n");
        return 2;
      }
    } else if (arg == "--checkpoint-dir" && i + 1 < args.size()) {
      checkpoint_dir = args[++i];
    } else if (arg == "--restore" && i + 1 < args.size()) {
      restore_path = args[++i];
    } else if (arg == "--trace-stats") {
      trace_stats = true;
    } else if (arg == "--stats-json" && i + 1 < args.size()) {
      stats_json_path = args[++i];
    } else if (arg == "--trace-json" && i + 1 < args.size()) {
      trace_json_path = args[++i];
    } else if (arg == "--profile-mroutines") {
      profile_mroutines = true;
    } else if (arg == "--trace") {
      trace_limit = 200;
      if (i + 1 < args.size() && !args[i + 1].empty() && args[i + 1][0] != '-' &&
          isdigit(static_cast<unsigned char>(args[i + 1][0]))) {
        if (!ParseU64Flag("--trace", args[++i], &trace_limit)) {
          return 2;
        }
      }
    } else if (!arg.empty() && arg[0] != '-' && spec.program.empty()) {
      spec.program = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (list_fault_targets) {
    std::fputs(DescribeFaultTargets(config).c_str(), stdout);
    return kExitOk;
  }
  if (spec.program.empty()) {
    return Usage();
  }
  if ((checkpoint_every != 0) != !checkpoint_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-every and --checkpoint-dir must be given together\n");
    return 2;
  }
  if ((metrics_every != 0) != !metrics_jsonl_path.empty()) {
    std::fprintf(stderr, "--metrics-every and --metrics-jsonl must be given together\n");
    return 2;
  }

  MetalSystem system(config);
  if (int rc = InstallMachine(spec, {&system}); rc != 0) {
    return rc;
  }

  // Fault injection: parse AND validate specs up front — malformed specs,
  // out-of-range locations and unreachable trigger cycles are usage errors,
  // not silently-inert runs. A restored run's budget is relative to the
  // restore point while trigger cycles are absolute, so the trigger-cycle
  // check only applies to cold starts.
  FaultEngine fault_engine(spec.fault_seed);
  const uint64_t validate_budget =
      restore_path.empty() ? (max_cycles != 0 ? max_cycles : config.default_max_cycles) : 0;
  if (Status status = AddFaultSpecs(spec, validate_budget, fault_engine); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (fault_engine.num_specs() != 0) {
    fault_engine.RegisterMetrics(system.core().metrics());
    system.core().SetFaultEngine(&fault_engine);
  }

  // Structured-event sinks. The ring buffer feeds the Chrome-trace export and
  // the crash dump's last-N event window; the profiler, span sink and flight
  // recorder aggregate in place. When several consumers are requested they
  // share one stream through a tee.
  RingBufferSink ring;
  MroutineProfiler profiler;
  SpanSink spans;
  FlightRecorder flight(static_cast<size_t>(flight_events));
  TeeSink tee;
  TraceSink* sink = nullptr;
  const bool want_ring = !trace_json_path.empty() || !crash_dump_path.empty();
  const bool want_profile = profile_mroutines || !stats_json_path.empty();
  const bool want_spans =
      !stats_json_path.empty() || !trace_json_path.empty() || metrics_every != 0;
  const bool want_flight = !crash_dump_path.empty();
  std::vector<TraceSink*> sinks;
  if (want_ring) {
    sinks.push_back(&ring);
  }
  if (want_profile) {
    sinks.push_back(&profiler);
  }
  if (want_spans) {
    sinks.push_back(&spans);
  }
  if (want_flight) {
    sinks.push_back(&flight);
  }
  if (sinks.size() == 1) {
    sink = sinks.front();
  } else if (!sinks.empty()) {
    for (TraceSink* consumer : sinks) {
      tee.Add(consumer);
    }
    sink = &tee;
  }
  if (sink != nullptr) {
    system.SetTraceSink(sink);
  }
  if (want_spans) {
    spans.SetWatchdogBudget(config.metal_watchdog_cycles);
    spans.RegisterMetrics(system.metrics());
  }

  uint64_t traced = 0;
  if (trace_limit != 0) {
    system.core().SetRetireTrace([&traced, trace_limit](const Core::RetireEvent& event) {
      if (traced++ >= trace_limit) {
        return;
      }
      std::fprintf(stderr, "%10llu  %c %08x  %s\n", (unsigned long long)event.cycle,
                   event.metal ? 'M' : ' ', event.pc, Disassemble(event.raw).c_str());
    });
  }

  // Restore replaces the freshly-booted machine state wholesale, so boot
  // explicitly first — MetalSystem::Run() would otherwise auto-boot on top of
  // the restored image.
  if (!restore_path.empty()) {
    if (Status status = system.Boot(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::vector<SnapshotSection> extras;
    if (Status status = RestoreSnapshotFile(system.core(), restore_path, &extras);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      // Incompatible snapshots (wrong version / CoreConfig hash / malformed)
      // are usage errors; I/O failures are runtime errors.
      return (status.code() == ErrorCode::kFailedPrecondition ||
              status.code() == ErrorCode::kInvalidArgument)
                 ? kExitUsage
                 : kExitRuntimeError;
    }
    // A malformed extras section is a bad input file, like a malformed core
    // section: usage error.
    for (const SnapshotSection& section : extras) {
      SnapReader reader(section.payload);
      Status status = Status::Ok();
      if (section.name == "fault") {
        status = fault_engine.RestoreState(reader);
      } else if (section.name == "profiler") {
        status = profiler.RestoreState(reader);
      } else if (section.name == "spans") {
        status = spans.RestoreState(reader);
      } else if (section.name == "flight") {
        status = flight.RestoreState(reader);
      } else if (section.name == "ring") {
        status = ring.RestoreState(reader);
      }
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return kExitUsage;
      }
    }
  }

  // Streaming metrics: opened before the run so an early fatal still leaves a
  // well-formed (possibly empty) JSONL file behind.
  std::ofstream metrics_out;
  if (metrics_every != 0) {
    metrics_out.open(metrics_jsonl_path);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot write '%s'\n", metrics_jsonl_path.c_str());
      return 1;
    }
  }
  IntervalSampler sampler(metrics_every == 0 ? 1 : metrics_every, &system.metrics(),
                          metrics_every != 0 ? &metrics_out : nullptr);

  // The run is always chunked (even with no checkpoint/metrics marks) so the
  // loop can poll g_stop_signal; chunking is byte-invariant, see above.
  InstallStopHandlers();
  if (checkpoint_every != 0 && ::mkdir(checkpoint_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create checkpoint directory '%s': %s\n", checkpoint_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  if (Status status = system.Boot(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  Core& core = system.core();
  const auto save_checkpoint = [&]() -> Status {
    std::vector<SnapshotSection> extras;
    if (fault_engine.num_specs() != 0) {
      SnapWriter writer;
      fault_engine.SaveState(writer);
      extras.push_back({"fault", writer.TakeBytes()});
    }
    if (want_profile) {
      SnapWriter writer;
      profiler.SaveState(writer);
      extras.push_back({"profiler", writer.TakeBytes()});
    }
    if (want_spans) {
      SnapWriter writer;
      spans.SaveState(writer);
      extras.push_back({"spans", writer.TakeBytes()});
    }
    if (want_flight) {
      SnapWriter writer;
      flight.SaveState(writer);
      extras.push_back({"flight", writer.TakeBytes()});
    }
    if (want_ring) {
      SnapWriter writer;
      ring.SaveState(writer);
      extras.push_back({"ring", writer.TakeBytes()});
    }
    const std::string path = StrFormat("%s/checkpoint-%llu.msnap", checkpoint_dir.c_str(),
                                       (unsigned long long)core.cycle());
    return SaveSnapshotFile(core, path, extras);
  };
  RunResult result;
  int stop_signal = 0;
  const uint64_t budget = max_cycles != 0 ? max_cycles : config.default_max_cycles;
  const uint64_t start_cycle = core.cycle();
  // Run in chunks that land exactly on the next checkpoint and/or metrics
  // mark (absolute machine cycles, so a restored run saves and samples at
  // the same marks the straight run did).
  while (!core.halted() && !core.has_fatal() && core.cycle() - start_cycle < budget) {
    if (g_stop_signal != 0) {
      stop_signal = g_stop_signal;
      break;
    }
    uint64_t next_mark = core.cycle() + kSignalPollCycles;
    if (checkpoint_every != 0) {
      next_mark = std::min(next_mark, (core.cycle() / checkpoint_every + 1) * checkpoint_every);
    }
    if (metrics_every != 0) {
      next_mark = std::min(next_mark, sampler.NextMark(core.cycle()));
    }
    const uint64_t remaining = budget - (core.cycle() - start_cycle);
    result = core.Run(std::min(next_mark - core.cycle(), remaining));
    if (core.halted() || core.has_fatal()) {
      break;
    }
    if (metrics_every != 0 && core.cycle() % metrics_every == 0) {
      sampler.SampleAt(core.cycle());
    }
    if (checkpoint_every != 0 && core.cycle() % checkpoint_every == 0) {
      if (Status status = save_checkpoint(); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  const bool evicted = stop_signal != 0;
  if (evicted && checkpoint_every != 0) {
    // Final checkpoint at the eviction cycle (not necessarily a
    // --checkpoint-every mark); a resumed run still saves/samples at the
    // original absolute marks, so its artifacts stay byte-identical to an
    // uninterrupted run's.
    if (Status status = save_checkpoint(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  // The loop's last Run() only covers the final chunk; rebuild the summary
  // for the whole invocation from core state.
  result.cycles = core.cycle() - start_cycle;
  result.instret = core.stats().instret;
  result.exit_code = core.exit_code();
  if (core.has_fatal()) {
    result.reason = RunResult::Reason::kFatal;
    result.fatal_message = core.fatal_status().message();
  } else if (core.halted()) {
    result.reason = RunResult::Reason::kHalted;
  } else {
    result.reason = RunResult::Reason::kCycleLimit;
  }
  const char* reason_name = evicted ? "evicted" : ReasonName(result.reason);
  const std::string& console = system.core().console().output();
  if (!console.empty()) {
    std::fwrite(console.data(), 1, console.size(), stdout);
  }
  if (evicted) {
    std::fprintf(stderr, "[evicted] signal=%d cycle=%llu%s\n", stop_signal,
                 (unsigned long long)core.cycle(),
                 checkpoint_every != 0 ? " (final checkpoint written)" : "");
  } else {
    switch (result.reason) {
      case RunResult::Reason::kHalted:
        std::fprintf(stderr, "[halted] exit=%u cycles=%llu instret=%llu\n", result.exit_code,
                     (unsigned long long)result.cycles, (unsigned long long)result.instret);
        break;
      case RunResult::Reason::kCycleLimit:
        std::fprintf(stderr, "[cycle limit reached] cycles=%llu\n",
                     (unsigned long long)result.cycles);
        break;
      case RunResult::Reason::kFatal:
        std::fprintf(stderr, "[fatal] %s\n", result.fatal_message.c_str());
        break;
    }
  }
  if (sink != nullptr) {
    profiler.Finalize(system.core().cycle());
    spans.Finalize(system.core().cycle());
  }
  if (trace_stats) {
    PrintStats(system.core());
  }
  if (profile_mroutines) {
    std::ostringstream text;
    profiler.WriteText(text, system.core().stats().cycles);
    std::fputs(text.str().c_str(), stderr);
  }
  bool io_ok = true;
  if (metrics_every != 0) {
    metrics_out.flush();
    io_ok &= metrics_out.good();
  }
  if (!stats_json_path.empty()) {
    io_ok &= WriteStatsJson(system, result, reason_name, spec.program,
                            want_profile ? &profiler : nullptr, stats_json_path);
  }
  if (!trace_json_path.empty()) {
    io_ok &= WriteTraceJson(ring, want_spans ? &spans : nullptr, trace_json_path);
  }
  if (!crash_dump_path.empty()) {
    // Written for every outcome (the reason field records which), so fatal
    // paths are debuggable and deterministic runs diff byte-identically.
    CrashDumpOptions options;
    options.reason = reason_name;
    options.fatal_message = result.fatal_message;
    if (Status status = WriteCrashDumpFile(system.core(), want_ring ? &ring : nullptr,
                                           want_flight ? &flight : nullptr, options,
                                           crash_dump_path);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      io_ok = false;
    }
  }
  if (!io_ok) {
    return kExitRuntimeError;
  }
  if (evicted) {
    return kExitEvicted;
  }
  switch (result.reason) {
    case RunResult::Reason::kHalted:
      return static_cast<int>(result.exit_code & 0xFF);
    case RunResult::Reason::kCycleLimit:
      return kExitTimeout;
    case RunResult::Reason::kFatal:
      return kExitFatalFault;
  }
  return kExitRuntimeError;
}

// msim replay: run configuration A (the shared run options) in lockstep
// against configuration B (A plus the --b-* overrides) and report the first
// divergence. With no --b-* overrides B is an exact copy of A, which checks
// that the machine itself is deterministic.
int CmdReplay(const std::vector<std::string>& args) {
  MachineSpec spec_a;
  MachineSpec checked_b;  // takes the --b- flags as they are read, to report a bad one there
  std::vector<size_t> b_flags;  // where they are, to apply them to B once A is complete
  uint64_t max_cycles = 0;
  std::string compare_mode = "auto";
  std::string divergence_json_path;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const size_t at = i;
    auto machine_flag = ParseMachineFlag(args, &i, kMachineFlags, &spec_a);
    if (machine_flag.ok() && !*machine_flag) {
      machine_flag = ParseMachineFlag(args, &i, kReplayBFlags, &checked_b, "--b-");
      if (machine_flag.ok() && *machine_flag) {
        b_flags.push_back(at);
      }
    }
    if (!machine_flag.ok()) {
      std::fprintf(stderr, "%s\n", machine_flag.status().message().c_str());
      return 2;
    }
    if (*machine_flag) {
      continue;
    }
    if (arg == "--max-cycles" && i + 1 < args.size()) {
      if (!ParseU64Flag("--max-cycles", args[++i], &max_cycles)) {
        return 2;
      }
    } else if (arg == "--until-divergence") {
      // The only mode replay has; accepted so invocations read as intended.
    } else if (arg == "--compare" && i + 1 < args.size()) {
      compare_mode = args[++i];
      if (compare_mode != "auto" && compare_mode != "cycle" && compare_mode != "retire") {
        std::fprintf(stderr, "unknown compare mode '%s' (want auto, cycle or retire)\n",
                     compare_mode.c_str());
        return 2;
      }
    } else if (arg == "--divergence-json" && i + 1 < args.size()) {
      divergence_json_path = args[++i];
    } else if (!arg.empty() && arg[0] != '-' && spec_a.program.empty()) {
      spec_a.program = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (spec_a.program.empty()) {
    return Usage();
  }

  // B is A with the --b- flags applied, except that it injects only its own
  // --b-inject faults.
  MachineSpec spec_b = spec_a;
  spec_b.inject.clear();
  for (size_t at : b_flags) {
    (void)ParseMachineFlag(args, &at, kReplayBFlags, &spec_b, "--b-");
  }
  const CoreConfig& config_a = spec_a.config;
  const CoreConfig& config_b = spec_b.config;

  // Cycle-granularity lockstep compares full per-cycle state digests, which
  // only lines up when both machines have identical timing. Fault injection
  // perturbs state, not timing parameters, so A-vs-A-plus-fault stays
  // cycle-comparable — that is how an injection is pinpointed to its cycle.
  const bool same_timing = config_b.mroutine_storage == config_a.mroutine_storage &&
                           config_b.fast_transition == config_a.fast_transition;
  // fast_step does not change timing (StepFast is cycle-exact), but the
  // cycle-granularity driver steps both cores per cycle and would never run
  // the hot path at all — a fast-vs-slow compare only means something at
  // retire granularity, where A is pumped through StepFast.
  const bool same_stepping = config_b.fast_step == config_a.fast_step;
  LockstepOptions options;
  if (compare_mode == "cycle") {
    if (!same_timing) {
      std::fprintf(stderr,
                   "--compare cycle requires identical timing configurations; B differs in "
                   "--b-storage/--b-fast, use --compare retire\n");
      return 2;
    }
    if (!same_stepping) {
      std::fprintf(stderr,
                   "--compare cycle steps both machines per cycle and would not exercise "
                   "fast_step; use --compare retire with --b-no-fast-step\n");
      return 2;
    }
    options.granularity = CompareGranularity::kCycle;
  } else if (compare_mode == "retire") {
    options.granularity = CompareGranularity::kRetire;
  } else {
    options.granularity = (same_timing && same_stepping) ? CompareGranularity::kCycle
                                                         : CompareGranularity::kRetire;
  }
  options.max_cycles = max_cycles;
  // The fast path only exists under MRAM storage (Core::IdReplacementChain),
  // so whether menter/mexit retire depends on the *effective* fast setting.
  const bool effective_fast_a =
      config_a.fast_transition && config_a.mroutine_storage == MroutineStorage::kMram;
  const bool effective_fast_b =
      config_b.fast_transition && config_b.mroutine_storage == MroutineStorage::kMram;
  options.ignore_transition_retires = effective_fast_a != effective_fast_b;
  options.metal_pc_insensitive = config_b.mroutine_storage != config_a.mroutine_storage;

  MetalSystem system_a(config_a);
  MetalSystem system_b(config_b);
  if (int rc = InstallMachine(spec_a, {&system_a, &system_b}); rc != 0) {
    return rc;
  }
  FaultEngine fault_a(spec_a.fault_seed);
  FaultEngine fault_b(spec_b.fault_seed);
  const uint64_t replay_budget = max_cycles != 0 ? max_cycles : config_a.default_max_cycles;
  for (const auto& [spec, engine] : {std::pair{&spec_a, &fault_a}, std::pair{&spec_b, &fault_b}}) {
    if (Status status = AddFaultSpecs(*spec, replay_budget, *engine); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (fault_a.num_specs() != 0) {
    system_a.core().SetFaultEngine(&fault_a);
  }
  if (fault_b.num_specs() != 0) {
    system_b.core().SetFaultEngine(&fault_b);
  }

  auto report = RunLockstep(system_a, system_b, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  WriteDivergenceText(*report, std::cerr);
  if (!divergence_json_path.empty()) {
    std::ofstream out(divergence_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", divergence_json_path.c_str());
      return 1;
    }
    WriteDivergenceJson(*report, out);
    out << "\n";
    if (!out.good()) {
      return 1;
    }
  }
  return report->diverged ? kExitDivergence : kExitOk;
}

int CmdAsm(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Usage();
  }
  auto source = ReadFile(args[0]);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = Assemble(*source);
  if (!program.ok()) {
    std::fprintf(stderr, "%s: %s\n", args[0].c_str(), program.status().ToString().c_str());
    return 1;
  }
  std::printf("; text @ 0x%08x, %zu bytes; data @ 0x%08x, %zu bytes; entry 0x%08x\n",
              program->text.base, program->text.bytes.size(), program->data.base,
              program->data.bytes.size(), program->entry);
  for (size_t offset = 0; offset + 4 <= program->text.bytes.size(); offset += 4) {
    uint32_t word = 0;
    for (int b = 0; b < 4; ++b) {
      word |= static_cast<uint32_t>(program->text.bytes[offset + b]) << (8 * b);
    }
    const uint32_t addr = program->text.base + static_cast<uint32_t>(offset);
    // Label?
    for (const auto& [name, value] : program->symbols) {
      if (value == addr) {
        std::printf("%s:\n", name.c_str());
      }
    }
    std::printf("  %08x:  %08x  %s\n", addr, word, Disassemble(word).c_str());
  }
  for (const auto& [entry, addr] : program->metal_entries) {
    std::printf("; .mentry %u -> 0x%08x\n", entry, addr);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") {
    return CmdRun(args);
  }
  if (command == "replay") {
    return CmdReplay(args);
  }
  if (command == "asm") {
    return CmdAsm(args);
  }
  if (command == "table2") {
    std::printf("%s", FormatTable2(GenerateTable2()).c_str());
    return 0;
  }
  return Usage();
}
