// Fleet job manifests (docs/robustness.md "Fleet supervision").
//
// A manifest describes a batch of independent simulation jobs the fleet
// supervisor (src/fleet/scheduler.h) executes across a pool of msim worker
// processes. The format is line-based INI:
//
//   # comment (also ';'); a '#' or ';' after whitespace starts a trailing one
//   [defaults]              # optional; applies to jobs defined BELOW it
//   checkpoint-every = 5000
//   retries = 2
//
//   [job sweep-mram]        # names must be unique, [A-Za-z0-9._-]+
//   program = progs/alu.s   # required; path to the guest program source
//   mcode = m.s             # repeatable
//   storage = mram          # mram | dram-cached | dram-uncached
//   inject = mreg@100:bit=3 # repeatable (src/fault fault spec)
//   fault-seed = 7
//   watchdog = 100000
//   max-cycles = 2000000    # guest cycle budget for the whole job
//   checkpoint-every = 5000 # enables crash/evict resume for this job
//   deadline-ms = 10000     # per-attempt wall-clock budget (0 = fleet default)
//   retries = 3             # attempt failures tolerated (-1 = fleet default)
//   args = --no-fast-step   # raw extra `msim run` arguments, space-split
//
// The machine keys (mcode, storage, inject, fault-seed, watchdog) are the
// msim flags of the same names, parsed by metal/machine_spec.h; of them only
// storage may appear in [defaults]. Numeric values use the strict ParseInt
// grammar (support/strings.h):
// malformed numbers, unknown keys, duplicate job names and jobs without a
// program are parse errors, never silently ignored.
#ifndef MSIM_FLEET_MANIFEST_H_
#define MSIM_FLEET_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metal/machine_spec.h"
#include "support/result.h"

namespace msim {

// One simulation job: enough to build an `msim run` command line plus the
// per-job robustness budgets that override the fleet-wide defaults.
struct JobSpec {
  std::string name;
  MachineSpec machine;
  uint64_t max_cycles = 0;              // 0 = msim default budget
  uint64_t checkpoint_every = 0;        // 0 = no checkpoints, no resume
  uint64_t deadline_ms = 0;             // 0 = inherit fleet default
  int64_t retries = -1;                 // -1 = inherit fleet default
  std::vector<std::string> extra_args;
};

// True when `name` is safe to use as a directory component.
bool IsValidJobName(std::string_view name);

Result<std::vector<JobSpec>> ParseManifest(std::string_view text);
Result<std::vector<JobSpec>> LoadManifestFile(const std::string& path);

}  // namespace msim

#endif  // MSIM_FLEET_MANIFEST_H_
