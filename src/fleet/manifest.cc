#include "fleet/manifest.h"

#include <fstream>
#include <sstream>

#include "support/strings.h"

namespace msim {

namespace {

Status KeyError(size_t line, std::string_view key, std::string_view value) {
  return ParseError(StrFormat("manifest line %zu: invalid value '%.*s' for key '%.*s'", line,
                              static_cast<int>(value.size()), value.data(),
                              static_cast<int>(key.size()), key.data()));
}

// Applies `key = value` to `spec`. `is_defaults` restricts the [defaults]
// section to the keys that make sense fleet-wide (budgets, checkpointing and
// storage, not programs or fault specs).
Status ApplyKey(size_t line, std::string_view key, std::string_view value, bool is_defaults,
                JobSpec* spec) {
  const unsigned machine_keys = is_defaults ? kOptStorage
                                             : kOptMcode | kOptStorage | kOptInject |
                                                   kOptFaultSeed | kOptWatchdog;
  size_t i = 0;
  const auto machine_key = ParseMachineFlag({"--" + std::string(key), std::string(value)}, &i,
                                            machine_keys, &spec->machine);
  if (!machine_key.ok() || *machine_key) {
    return machine_key.ok() ? Status::Ok() : KeyError(line, key, value);
  }
  if (!is_defaults) {
    if (key == "program") {
      spec->machine.program = std::string(value);
      return Status::Ok();
    }
    if (key == "args") {
      for (std::string_view part : Split(value, ' ')) {
        if (!part.empty()) {
          spec->extra_args.push_back(std::string(part));
        }
      }
      return Status::Ok();
    }
  }
  if (key == "max-cycles") {
    return ParseU64(value, &spec->max_cycles) ? Status::Ok() : KeyError(line, key, value);
  }
  if (key == "checkpoint-every") {
    return ParseU64(value, &spec->checkpoint_every) ? Status::Ok() : KeyError(line, key, value);
  }
  if (key == "deadline-ms") {
    return ParseU64(value, &spec->deadline_ms) ? Status::Ok() : KeyError(line, key, value);
  }
  if (key == "retries") {
    const auto parsed = ParseInt(value);
    if (!parsed || *parsed < -1) {
      return KeyError(line, key, value);
    }
    spec->retries = *parsed;
    return Status::Ok();
  }
  return ParseError(StrFormat("manifest line %zu: unknown key '%.*s'%s", line,
                              static_cast<int>(key.size()), key.data(),
                              is_defaults ? " in [defaults]" : ""));
}

// `line` without a trailing comment: a '#' or ';' that follows whitespace
// starts one, so values may still contain either character.
std::string_view StripTrailingComment(std::string_view line) {
  for (size_t i = 1; i < line.size(); ++i) {
    if ((line[i] == '#' || line[i] == ';') && (line[i - 1] == ' ' || line[i - 1] == '\t')) {
      return TrimWhitespace(line.substr(0, i));
    }
  }
  return line;
}

}  // namespace

bool IsValidJobName(std::string_view name) {
  if (name.empty() || name.size() > 128) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  // "." / ".." would escape the output tree.
  return name != "." && name != "..";
}

Result<std::vector<JobSpec>> ParseManifest(std::string_view text) {
  std::vector<JobSpec> jobs;
  JobSpec defaults;
  bool in_defaults = false;
  bool in_job = false;
  size_t line_number = 0;

  const auto finish_job = [&]() -> Status {
    if (!in_job) {
      return Status::Ok();
    }
    JobSpec& job = jobs.back();
    if (job.machine.program.empty()) {
      return ParseError(StrFormat("job '%s' has no program", job.name.c_str()));
    }
    return Status::Ok();
  };

  for (std::string_view raw : Split(text, '\n')) {
    ++line_number;
    const std::string_view line = StripTrailingComment(TrimWhitespace(raw));
    if (line.empty() || line[0] == '#' || line[0] == ';') {
      continue;
    }
    if (line.front() == '[' && line.back() == ']') {
      MSIM_RETURN_IF_ERROR(finish_job());
      std::string_view section = TrimWhitespace(line.substr(1, line.size() - 2));
      if (section == "defaults") {
        in_defaults = true;
        in_job = false;
        continue;
      }
      constexpr std::string_view kJobPrefix = "job ";
      if (section.size() <= kJobPrefix.size() ||
          section.substr(0, kJobPrefix.size()) != kJobPrefix) {
        return ParseError(StrFormat("manifest line %zu: expected [defaults] or [job NAME]",
                                    line_number));
      }
      const std::string_view name = TrimWhitespace(section.substr(kJobPrefix.size()));
      if (!IsValidJobName(name)) {
        return ParseError(StrFormat("manifest line %zu: invalid job name '%.*s' "
                                    "(want [A-Za-z0-9._-]+)",
                                    line_number, static_cast<int>(name.size()), name.data()));
      }
      for (const JobSpec& existing : jobs) {
        if (existing.name == name) {
          return ParseError(StrFormat("manifest line %zu: duplicate job name '%.*s'", line_number,
                                      static_cast<int>(name.size()), name.data()));
        }
      }
      JobSpec job = defaults;  // budgets/checkpointing inherited at definition
      job.name = std::string(name);
      jobs.push_back(std::move(job));
      in_defaults = false;
      in_job = true;
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return ParseError(StrFormat("manifest line %zu: expected 'key = value'", line_number));
    }
    const std::string_view key = TrimWhitespace(line.substr(0, eq));
    const std::string_view value = TrimWhitespace(line.substr(eq + 1));
    if (in_defaults) {
      MSIM_RETURN_IF_ERROR(ApplyKey(line_number, key, value, /*is_defaults=*/true, &defaults));
    } else if (in_job) {
      MSIM_RETURN_IF_ERROR(ApplyKey(line_number, key, value, /*is_defaults=*/false, &jobs.back()));
    } else {
      return ParseError(
          StrFormat("manifest line %zu: key outside a [defaults] or [job] section", line_number));
    }
  }
  MSIM_RETURN_IF_ERROR(finish_job());
  if (jobs.empty()) {
    return ParseError("manifest defines no jobs");
  }
  return jobs;
}

Result<std::vector<JobSpec>> LoadManifestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound(StrFormat("cannot open manifest '%s'", path.c_str()));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseManifest(text.str());
}

}  // namespace msim
