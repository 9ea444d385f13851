#include "fault/fault.h"

#include "cpu/config.h"
#include "cpu/core.h"
#include "mem/mram.h"
#include "snap/snapstream.h"
#include "support/strings.h"

namespace msim {
namespace {

// Resolves the grammar's TARGET word; nullopt for unknown names.
std::optional<FaultTarget> TargetFromName(std::string_view name) {
  if (name == "mram-code") return FaultTarget::kMramCode;
  if (name == "mram-data") return FaultTarget::kMramData;
  if (name == "mreg") return FaultTarget::kMreg;
  if (name == "tlb") return FaultTarget::kTlb;
  if (name == "icache") return FaultTarget::kICache;
  if (name == "dcache") return FaultTarget::kDCache;
  if (name == "bus") return FaultTarget::kBus;
  return std::nullopt;
}

// (and_mask, xor_mask) realising `mode` over the bits in `mask`.
void MasksFor(FaultMode mode, uint32_t mask, uint32_t* and_mask, uint32_t* xor_mask) {
  switch (mode) {
    case FaultMode::kFlip:
      *and_mask = 0xFFFFFFFFu;
      *xor_mask = mask;
      break;
    case FaultMode::kStuck0:
      *and_mask = ~mask;
      *xor_mask = 0;
      break;
    case FaultMode::kStuck1:
      *and_mask = ~mask;
      *xor_mask = mask;
      break;
  }
}

}  // namespace

const char* FaultTargetName(FaultTarget target) {
  switch (target) {
    case FaultTarget::kMramCode: return "mram-code";
    case FaultTarget::kMramData: return "mram-data";
    case FaultTarget::kMreg: return "mreg";
    case FaultTarget::kTlb: return "tlb";
    case FaultTarget::kICache: return "icache";
    case FaultTarget::kDCache: return "dcache";
    case FaultTarget::kBus: return "bus";
  }
  return "unknown";
}

Result<FaultSpec> ParseFaultSpec(std::string_view text) {
  FaultSpec spec;
  spec.text = std::string(text);

  const size_t at_sign = text.find('@');
  if (at_sign == std::string_view::npos) {
    return ParseError(StrFormat("fault spec '%s': expected TARGET@TRIGGER[:PARAM,...]",
                                spec.text.c_str()));
  }
  const std::string_view target_name = TrimWhitespace(text.substr(0, at_sign));
  const auto target = TargetFromName(target_name);
  if (!target) {
    return ParseError(StrFormat(
        "fault spec '%s': unknown target '%.*s' (want mram-code|mram-data|mreg|tlb|"
        "icache|dcache|bus)",
        spec.text.c_str(), static_cast<int>(target_name.size()), target_name.data()));
  }
  spec.target = *target;

  std::string_view rest = text.substr(at_sign + 1);
  std::string_view params;
  const size_t colon = rest.find(':');
  if (colon != std::string_view::npos) {
    params = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }

  std::string_view trigger = TrimWhitespace(rest);
  if (!trigger.empty() && trigger.front() == '~') {
    spec.probabilistic = true;
    const auto period = ParseInt(TrimWhitespace(trigger.substr(1)));
    if (!period || *period <= 0) {
      return ParseError(StrFormat("fault spec '%s': '~N' needs a positive integer N",
                                  spec.text.c_str()));
    }
    spec.period = static_cast<uint64_t>(*period);
  } else {
    const auto cycle = ParseInt(trigger);
    if (!cycle || *cycle < 0) {
      return ParseError(StrFormat(
          "fault spec '%s': trigger must be a cycle number or '~N'", spec.text.c_str()));
    }
    spec.cycle = static_cast<uint64_t>(*cycle);
  }

  if (!params.empty()) {
    for (std::string_view param : Split(params, ',')) {
      param = TrimWhitespace(param);
      const size_t eq = param.find('=');
      if (eq == std::string_view::npos) {
        return ParseError(StrFormat("fault spec '%s': parameter '%.*s' is not KEY=VALUE",
                                    spec.text.c_str(), static_cast<int>(param.size()),
                                    param.data()));
      }
      const std::string_view key = TrimWhitespace(param.substr(0, eq));
      const auto value = ParseInt(TrimWhitespace(param.substr(eq + 1)));
      if (!value) {
        return ParseError(StrFormat("fault spec '%s': bad integer in '%.*s'",
                                    spec.text.c_str(), static_cast<int>(param.size()),
                                    param.data()));
      }
      if (key == "bit") {
        if (*value < 0 || *value > 31) {
          return ParseError(
              StrFormat("fault spec '%s': bit=N needs N in 0..31", spec.text.c_str()));
        }
        spec.mask |= 1u << *value;
      } else if (key == "mask") {
        if (*value < 0 || static_cast<uint64_t>(*value) > 0xFFFFFFFFull) {
          return ParseError(
              StrFormat("fault spec '%s': mask=X needs a 32-bit value", spec.text.c_str()));
        }
        if (*value == 0) {
          return ParseError(StrFormat(
              "fault spec '%s': mask=0 corrupts nothing; omit mask for a random "
              "single-bit flip or set at least one bit",
              spec.text.c_str()));
        }
        spec.mask |= static_cast<uint32_t>(*value);
      } else if (key == "at") {
        if (*value < 0 || static_cast<uint64_t>(*value) > 0xFFFFFFFFull) {
          return ParseError(
              StrFormat("fault spec '%s': at=N needs a 32-bit value", spec.text.c_str()));
        }
        spec.has_at = true;
        spec.at = static_cast<uint32_t>(*value);
      } else if (key == "stuck") {
        if (*value == 0) {
          spec.mode = FaultMode::kStuck0;
        } else if (*value == 1) {
          spec.mode = FaultMode::kStuck1;
        } else {
          return ParseError(
              StrFormat("fault spec '%s': stuck= must be 0 or 1", spec.text.c_str()));
        }
      } else {
        return ParseError(StrFormat(
            "fault spec '%s': unknown parameter '%.*s' (want bit|mask|at|stuck)",
            spec.text.c_str(), static_cast<int>(key.size()), key.data()));
      }
    }
  }
  return spec;
}

uint32_t FaultTargetCapacity(FaultTarget target, const CoreConfig& config) {
  switch (target) {
    case FaultTarget::kMramCode: return kMramCodeSize / 4;
    case FaultTarget::kMramData: return kMramDataSize / 4;
    case FaultTarget::kMreg: return 32;
    case FaultTarget::kTlb: return config.tlb_entries;
    case FaultTarget::kICache: return config.icache_lines;
    case FaultTarget::kDCache: return config.dcache_lines;
    case FaultTarget::kBus: return 1;
  }
  return 1;
}

Status ValidateFaultSpec(const FaultSpec& spec, const CoreConfig& config,
                         uint64_t max_cycles) {
  if (!spec.probabilistic && max_cycles != 0 && spec.cycle >= max_cycles) {
    return InvalidArgument(StrFormat(
        "fault spec '%s': trigger cycle %llu never fires within the cycle "
        "budget of %llu (raise --max-cycles or lower the trigger)",
        spec.text.c_str(), static_cast<unsigned long long>(spec.cycle),
        static_cast<unsigned long long>(max_cycles)));
  }
  if (!spec.has_at) {
    return Status::Ok();
  }
  switch (spec.target) {
    case FaultTarget::kMramCode:
      if (spec.at >= kMramCodeSize) {
        return InvalidArgument(StrFormat(
            "fault spec '%s': at=%u is outside mram-code (byte offsets 0..%u)",
            spec.text.c_str(), spec.at, kMramCodeSize - 1));
      }
      break;
    case FaultTarget::kMramData:
      if (spec.at >= kMramDataSize) {
        return InvalidArgument(StrFormat(
            "fault spec '%s': at=%u is outside mram-data (byte offsets 0..%u)",
            spec.text.c_str(), spec.at, kMramDataSize - 1));
      }
      break;
    case FaultTarget::kMreg:
      if (spec.at >= 32) {
        return InvalidArgument(
            StrFormat("fault spec '%s': at=%u is not a Metal register (m0..m31)",
                      spec.text.c_str(), spec.at));
      }
      break;
    case FaultTarget::kTlb:
      if (spec.at >= config.tlb_entries) {
        return InvalidArgument(StrFormat(
            "fault spec '%s': at=%u is outside the TLB (entries 0..%u)",
            spec.text.c_str(), spec.at, config.tlb_entries - 1));
      }
      break;
    case FaultTarget::kICache:
      if (spec.at >= config.icache_lines) {
        return InvalidArgument(StrFormat(
            "fault spec '%s': at=%u is outside the I-cache (lines 0..%u)",
            spec.text.c_str(), spec.at, config.icache_lines - 1));
      }
      break;
    case FaultTarget::kDCache:
      if (spec.at >= config.dcache_lines) {
        return InvalidArgument(StrFormat(
            "fault spec '%s': at=%u is outside the D-cache (lines 0..%u)",
            spec.text.c_str(), spec.at, config.dcache_lines - 1));
      }
      break;
    case FaultTarget::kBus:
      return InvalidArgument(StrFormat(
          "fault spec '%s': bus faults corrupt the next completed load and "
          "have no location; drop at=",
          spec.text.c_str()));
  }
  return Status::Ok();
}

std::string DescribeFaultTargets(const CoreConfig& config) {
  std::string out;
  out +=
      "fault spec grammar (msim run --inject SPEC, repeatable):\n"
      "\n"
      "  SPEC    := TARGET '@' TRIGGER [':' PARAM (',' PARAM)*]\n"
      "  TRIGGER := CYCLE        one-shot, fires at the first cycle >= CYCLE\n"
      "                          (must lie inside the --max-cycles budget)\n"
      "           | '~' N        probabilistic, 1/N chance every cycle\n"
      "  PARAM   := bit=N        corrupt bit N (0..31; repeatable, bits accumulate)\n"
      "           | mask=X       corrupt the bits set in X (nonzero 32-bit)\n"
      "           | at=N         pin the location (see table; random when absent)\n"
      "           | stuck=0|1    stuck-at instead of the default bit flip\n"
      "\n"
      "  TARGET     at= range                    detection\n";
  out += StrFormat(
      "  mram-code  byte offset 0..%u (word-aligned)   fetch parity -> machine check\n",
      kMramCodeSize - 1);
  out += StrFormat(
      "  mram-data  byte offset 0..%u (word-aligned)    mld parity -> machine check\n",
      kMramDataSize - 1);
  out += "  mreg       register index 0..31             none (silent)\n";
  out += StrFormat(
      "  tlb        entry index 0..%u                silent; wrong translations\n",
      config.tlb_entries - 1);
  out += StrFormat(
      "  icache     line index 0..%u                 timing-only (tags)\n",
      config.icache_lines - 1);
  out += StrFormat(
      "  dcache     line index 0..%u                 timing-only (tags)\n",
      config.dcache_lines - 1);
  out += "  bus        (no location; at= rejected)      silent; next load's data\n";
  return out;
}

Status FaultEngine::AddSpec(std::string_view text) {
  MSIM_ASSIGN_OR_RETURN(const FaultSpec spec, ParseFaultSpec(text));
  AddSpec(spec);
  return Status::Ok();
}

void FaultEngine::AddSpec(const FaultSpec& spec) {
  specs_.push_back(spec);
  fired_.push_back(false);
}

void FaultEngine::Tick(Core& core) {
  const uint64_t cycle = core.cycle();
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    if (spec.probabilistic) {
      // Every probabilistic spec draws exactly once per cycle, so the RNG
      // stream — and therefore the whole run — is reproducible.
      if (rng_.Chance(1, spec.period)) {
        Apply(core, spec);
      }
    } else if (!fired_[i] && cycle >= spec.cycle) {
      fired_[i] = true;
      Apply(core, spec);
    }
  }
}

void FaultEngine::Apply(Core& core, const FaultSpec& spec) {
  const uint32_t mask = spec.mask != 0 ? spec.mask : (1u << rng_.Below(32));
  uint32_t and_mask = 0xFFFFFFFFu;
  uint32_t xor_mask = 0;
  MasksFor(spec.mode, mask, &and_mask, &xor_mask);

  uint32_t location = 0;
  switch (spec.target) {
    case FaultTarget::kMramCode: {
      location = spec.has_at ? (spec.at & ~3u)
                             : static_cast<uint32_t>(rng_.Below(kMramCodeSize / 4)) * 4;
      core.mram().CorruptCodeWord(location, and_mask, xor_mask);
      break;
    }
    case FaultTarget::kMramData: {
      location = spec.has_at ? (spec.at & ~3u)
                             : static_cast<uint32_t>(rng_.Below(kMramDataSize / 4)) * 4;
      core.mram().CorruptDataWord(location, and_mask, xor_mask);
      break;
    }
    case FaultTarget::kMreg: {
      location = spec.has_at ? (spec.at & 31) : static_cast<uint32_t>(rng_.Below(32));
      const uint32_t value = core.metal().ReadMreg(static_cast<uint8_t>(location));
      core.metal().WriteMreg(static_cast<uint8_t>(location), (value & and_mask) ^ xor_mask);
      break;
    }
    case FaultTarget::kTlb: {
      const uint32_t capacity = core.mmu().tlb().capacity();
      location = spec.has_at ? spec.at : static_cast<uint32_t>(rng_.Below(capacity));
      core.mmu().tlb().CorruptEntry(location, and_mask, xor_mask);
      break;
    }
    case FaultTarget::kICache: {
      location =
          spec.has_at ? spec.at : static_cast<uint32_t>(rng_.Below(core.icache().num_lines()));
      core.icache().CorruptLine(location, and_mask, xor_mask);
      break;
    }
    case FaultTarget::kDCache: {
      location =
          spec.has_at ? spec.at : static_cast<uint32_t>(rng_.Below(core.dcache().num_lines()));
      core.dcache().CorruptLine(location, and_mask, xor_mask);
      break;
    }
    case FaultTarget::kBus: {
      core.ArmBusFault(and_mask, xor_mask);
      break;
    }
  }
  ++injections_;
  core.tracer().Emit(TraceEventKind::kFaultInject, location,
                     static_cast<uint32_t>(spec.target), xor_mask, core.metal_mode());
}

void FaultEngine::SaveState(SnapWriter& w) const {
  w.U64(static_cast<uint64_t>(specs_.size()));
  w.U64(rng_.state());
  w.U64(static_cast<uint64_t>(fired_.size()));
  for (size_t i = 0; i < fired_.size(); ++i) {
    w.Bool(fired_[i]);
  }
  w.U64(injections_);
}

Status FaultEngine::RestoreState(SnapReader& r) {
  const uint64_t num_specs = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("fault engine header"));
  if (num_specs != specs_.size()) {
    return InvalidArgument(
        "snapshot fault-engine state was saved with a different --inject spec list");
  }
  rng_.set_state(r.U64());
  const uint64_t num_fired = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("fault engine fired flags"));
  fired_.assign(num_fired, false);
  for (uint64_t i = 0; i < num_fired; ++i) {
    fired_[i] = r.Bool();
  }
  injections_ = r.U64();
  return r.ToStatus("fault engine");
}

}  // namespace msim
