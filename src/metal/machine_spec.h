// MachineSpec: the one description of a simulated machine that msim
// run/replay, mcamp, mfuzz and msimd manifests share, and the flag grammar of
// those tools (docs/robustness.md "Machine spec"): one option table, where
// flag `--NAME` and manifest key `NAME` are the same option; one loader and
// installer of its files; and one canonical serializer back to `msim`
// arguments, so that a repro script or a fleet job names its machine exactly.
// Each tool's flag loop hands it the machine flags and keeps only its own.
#ifndef MSIM_METAL_MACHINE_SPEC_H_
#define MSIM_METAL_MACHINE_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/config.h"
#include "support/result.h"

namespace msim {

class FaultEngine;
class MetalSystem;
struct DivergenceReport;

struct MachineSpec {
  std::string program;
  std::vector<std::string> mcode;   // install order
  // Options set mroutine_storage, fast_transition, fast_step, mram_parity and
  // metal_watchdog_cycles; the other fields keep their defaults.
  CoreConfig config;
  std::vector<std::string> inject;  // fault spec texts (fault/fault.h)
  uint64_t fault_seed = 0;

  bool operator==(const MachineSpec&) const = default;
};

// The options, as bits of the set a caller accepts.
enum MachineOption : unsigned {
  kOptMcode = 1u << 0,       // mcode PATH, repeatable
  kOptStorage = 1u << 1,     // storage mram|dram-cached|dram-uncached
  kOptNoFast = 1u << 2,      // no-fast
  kOptNoFastStep = 1u << 3,  // no-fast-step
  kOptNoParity = 1u << 4,    // no-parity
  kOptInject = 1u << 5,      // inject SPEC, repeatable
  kOptFaultSeed = 1u << 6,   // fault-seed N
  kOptWatchdog = 1u << 7,    // watchdog N
  kOptFast = 1u << 8,        // fast: only msim replay's --b-fast
  kOptFastStep = 1u << 9,    // fast-step: only msim replay's --b-fast-step
};
// The machine flags of `msim run`, and all that MsimArgs emits.
constexpr unsigned kMachineFlags = (1u << 8) - 1;
// The options `msim replay` takes for machine B, as `--b-NAME`.
constexpr unsigned kReplayBFlags = kOptStorage | kOptFast | kOptNoFast | kOptFastStep |
                                   kOptNoFastStep | kOptInject | kOptFaultSeed;

// The one option setter. When args[*i] is `prefix` plus the name of an
// option in `allowed`, applies it (taking args[*i + 1] as its value, if it
// has one) and leaves *i on the last argument used. False when it is not, or
// when its value is missing: the caller then handles it like any other
// argument. The error is a bad value, with a message naming the flag as
// written. A manifest line `key = value` is the flag {"--key", "value"}.
Result<bool> ParseMachineFlag(const std::vector<std::string>& args, size_t* i, unsigned allowed,
                              MachineSpec* spec, std::string_view prefix = "--");

// Every numeric flag's value, in every tool: strict non-negative integers
// (support/strings.h ParseU64), so "100abc", garbage, negative values and
// overflow never become 0 or saturate. False on a bad value, after printing
// the usage error (the caller exits 2).
bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out);

// A whole text file; NotFound if it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

// A spec's files, read once, installable into any number of machines.
struct MachineSources {
  std::vector<std::string> mcode;
  std::string program;
};

// Reads the mcode files in order, then the program.
Result<MachineSources> ReadMachineSources(const MachineSpec& spec);

// Adds the mcode in order and loads the program; the system boots later.
Status InstallSources(const MachineSources& sources, MetalSystem& system);

// Parses each `inject` text, validates it against the spec's machine and a
// budget of `budget` cycles (0 skips the trigger-cycle check), and adds it
// to `engine`. The first bad spec is the error.
Status AddFaultSpecs(const MachineSpec& spec, uint64_t budget, FaultEngine& engine);

// The canonical `msim` arguments naming `spec`: program, --mcode..., then
// --storage, --no-fast, --no-parity, --inject..., --fault-seed and
// --watchdog, each only when it is not the default. Like the snapshot config
// hash it leaves out fast_step: stepping is host-tier and changes no result.
std::vector<std::string> MsimArgs(const MachineSpec& spec);

// POSIX-shell single quoting.
std::string ShellQuote(std::string_view arg);
// Joined with spaces, quoting only the arguments that need it.
std::string ShellJoin(const std::vector<std::string>& args);

// A repro.sh, runnable from any directory, that replays a divergence: the
// `comment` lines, then `msim replay MACHINE_ARGS --until-divergence
// B_FLAGS --max-cycles N` in the script's directory ($MSIM names the binary).
std::string ReplayScript(std::string_view comment, std::string_view machine_args,
                         std::string_view b_flags, uint64_t max_cycles);

// A file in a repro directory.
struct ReproFile {
  std::string name;
  std::string contents;
};

// Writes the repro directory <parent>/<name>, creating both as needed: the
// `files`, divergence.json when `divergence` is given, and an executable
// repro.sh holding `script`.
Status WriteReproDir(const std::string& parent, const std::string& name,
                     std::vector<ReproFile> files, const DivergenceReport* divergence,
                     const std::string& script);

}  // namespace msim

#endif  // MSIM_METAL_MACHINE_SPEC_H_
