#include "metal/machine_spec.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "fault/fault.h"
#include "metal/system.h"
#include "snap/diverge.h"
#include "support/strings.h"

namespace msim {

namespace {

constexpr struct Option {
  std::string_view name;
  MachineOption bit;
  bool takes_value;
} kOptions[] = {
    {"mcode", kOptMcode, true},          {"storage", kOptStorage, true},
    {"no-fast", kOptNoFast, false},      {"no-fast-step", kOptNoFastStep, false},
    {"no-parity", kOptNoParity, false},  {"inject", kOptInject, true},
    {"fault-seed", kOptFaultSeed, true}, {"watchdog", kOptWatchdog, true},
    {"fast", kOptFast, false},           {"fast-step", kOptFastStep, false},
};

// Indexed by MroutineStorage.
constexpr std::string_view kStorageNames[] = {"mram", "dram-cached", "dram-uncached"};

const Option* FindOption(std::string_view name, unsigned allowed) {
  for (const Option& option : kOptions) {
    if (option.name == name && (allowed & option.bit) != 0) {
      return &option;
    }
  }
  return nullptr;
}

// False for a bad value.
bool Apply(const Option& option, std::string_view value, MachineSpec* spec) {
  CoreConfig& config = spec->config;
  switch (option.bit) {
    case kOptMcode: spec->mcode.emplace_back(value); return true;
    case kOptStorage:
      for (size_t i = 0; i < std::size(kStorageNames); ++i) {
        if (kStorageNames[i] == value) {
          config.mroutine_storage = static_cast<MroutineStorage>(i);
          return true;
        }
      }
      return false;
    case kOptNoFast: config.fast_transition = false; return true;
    case kOptNoFastStep: config.fast_step = false; return true;
    case kOptNoParity: config.mram_parity = false; return true;
    case kOptInject: spec->inject.emplace_back(value); return true;
    case kOptFaultSeed: return ParseU64(value, &spec->fault_seed);
    case kOptWatchdog: return ParseU64(value, &config.metal_watchdog_cycles);
    case kOptFast: config.fast_transition = true; return true;
    case kOptFastStep: config.fast_step = true; return true;
  }
  return false;
}

std::string BadNumber(const std::string& flag, const std::string& text) {
  return StrFormat("invalid value for %s: '%s' (want a non-negative integer)", flag.c_str(),
                   text.c_str());
}

bool NeedsQuoting(std::string_view arg) {
  constexpr std::string_view kPlainPunct = "_-./=:,@%+";
  for (char c : arg) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        kPlainPunct.find(c) == std::string_view::npos) {
      return true;
    }
  }
  return arg.empty();
}

}  // namespace

Result<bool> ParseMachineFlag(const std::vector<std::string>& args, size_t* i, unsigned allowed,
                              MachineSpec* spec, std::string_view prefix) {
  const std::string& flag = args[*i];
  if (flag.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const Option* option = FindOption(std::string_view(flag).substr(prefix.size()), allowed);
  if (option == nullptr || (option->takes_value && *i + 1 >= args.size())) {
    return false;
  }
  const std::string value = option->takes_value ? args[++*i] : "";
  if (Apply(*option, value, spec)) {
    return true;
  }
  return InvalidArgument(option->bit == kOptStorage
                             ? StrFormat("unknown storage mode '%s'", value.c_str())
                             : BadNumber(flag, value));
}

bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out) {
  if (!ParseU64(text, out)) {
    std::fprintf(stderr, "%s\n", BadNumber(flag, text).c_str());
    return false;
  }
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Result<MachineSources> ReadMachineSources(const MachineSpec& spec) {
  MachineSources sources;
  for (const std::string& path : spec.mcode) {
    MSIM_ASSIGN_OR_RETURN(sources.mcode.emplace_back(), ReadFile(path));
  }
  MSIM_ASSIGN_OR_RETURN(sources.program, ReadFile(spec.program));
  return sources;
}

Status InstallSources(const MachineSources& sources, MetalSystem& system) {
  for (const std::string& source : sources.mcode) {
    system.AddMcode(source);
  }
  return system.LoadProgramSource(sources.program);
}

Status AddFaultSpecs(const MachineSpec& spec, uint64_t budget, FaultEngine& engine) {
  for (const std::string& text : spec.inject) {
    MSIM_ASSIGN_OR_RETURN(const FaultSpec fault, ParseFaultSpec(text));
    MSIM_RETURN_IF_ERROR(ValidateFaultSpec(fault, spec.config, budget));
    engine.AddSpec(fault);
  }
  return Status::Ok();
}

std::vector<std::string> MsimArgs(const MachineSpec& spec) {
  const CoreConfig& config = spec.config;
  std::vector<std::string> args = {spec.program};
  for (const std::string& path : spec.mcode) {
    args.insert(args.end(), {"--mcode", path});
  }
  if (config.mroutine_storage != MroutineStorage::kMram) {
    args.insert(args.end(), {"--storage", std::string(kStorageNames[static_cast<size_t>(
                                              config.mroutine_storage)])});
  }
  if (!config.fast_transition) {
    args.push_back("--no-fast");
  }
  if (!config.mram_parity) {
    args.push_back("--no-parity");
  }
  for (const std::string& text : spec.inject) {
    args.insert(args.end(), {"--inject", text});
  }
  if (spec.fault_seed != 0) {
    args.insert(args.end(), {"--fault-seed", std::to_string(spec.fault_seed)});
  }
  if (config.metal_watchdog_cycles != 0) {
    args.insert(args.end(), {"--watchdog", std::to_string(config.metal_watchdog_cycles)});
  }
  return args;
}

std::string ShellQuote(std::string_view arg) {
  std::string quoted = "'";
  for (char c : arg) {
    quoted += c == '\'' ? std::string_view("'\\''") : std::string_view(&c, 1);
  }
  return quoted + "'";
}

std::string ShellJoin(const std::vector<std::string>& args) {
  std::string joined;
  for (const std::string& arg : args) {
    joined += (joined.empty() ? "" : " ") + (NeedsQuoting(arg) ? ShellQuote(arg) : arg);
  }
  return joined;
}

std::string ReplayScript(std::string_view comment, std::string_view machine_args,
                         std::string_view b_flags, uint64_t max_cycles) {
  return StrFormat(
      "#!/bin/sh\n%.*scd \"$(dirname \"$0\")\"\n"
      "exec \"${MSIM:-msim}\" replay %.*s --until-divergence \\\n  %.*s%s--max-cycles %llu\n",
      (int)comment.size(), comment.data(), (int)machine_args.size(), machine_args.data(),
      (int)b_flags.size(), b_flags.data(), b_flags.empty() ? "" : " ",
      (unsigned long long)max_cycles);
}

Status WriteReproDir(const std::string& parent, const std::string& name,
                     std::vector<ReproFile> files, const DivergenceReport* divergence,
                     const std::string& script) {
  const std::string dir = parent + "/" + name;
  for (const std::string& path : {parent, dir}) {
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
      return Internal(StrFormat("cannot create directory '%s': %s", path.c_str(),
                                std::strerror(errno)));
    }
  }
  if (divergence != nullptr) {
    std::ostringstream json;
    WriteDivergenceJson(*divergence, json);
    files.push_back({"divergence.json", json.str() + "\n"});
  }
  files.push_back({"repro.sh", script});
  for (const ReproFile& file : files) {
    std::ofstream out(dir + "/" + file.name, std::ios::binary);
    if (!(out << file.contents).flush()) {
      return Internal(StrFormat("cannot write '%s/%s'", dir.c_str(), file.name.c_str()));
    }
  }
  ::chmod((dir + "/repro.sh").c_str(), 0755);
  return Status::Ok();
}

}  // namespace msim
