// Tests for the machine spec (src/metal/machine_spec.h): the canonical
// serializer round-trips through the flag parser, a manifest job names the
// same machine as the flags do, fleet argv is the canonical arguments plus
// the job plumbing, repro scripts carry the machine and run from anywhere,
// and the flag and manifest parsers answer mutated input with a usage error,
// never a crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fleet/manifest.h"
#include "fleet/worker.h"
#include "metal/machine_spec.h"
#include "support/rng.h"
#include "support/strings.h"

namespace msim {
namespace {


const char* const kPaths[] = {"p.s",          "guests/alu.s", "my dir/guest one.s",
                              "m-c_0.v2.s",   "it's.s",       "$HOME/x.s",
                              "a,b=c:d@e%f+", "tab\there.s"};
const char* const kInjects[] = {"mreg@20:at=3,bit=0", "dcache@~40", "mram-code@5:bit=3",
                                "tlb@100:at=1,mask=0xff", "bus@7:bit=31"};

std::string Pick(Rng& rng, const char* const* items, size_t n) { return items[rng.Below(n)]; }

// A fresh directory under the test temp dir (whose name may end in '/').
std::string MakeDir(const std::string& name) {
  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() == '/') {
    dir.pop_back();
  }
  dir += "/" + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str()), 0);
  return dir;
}

// A random spec over every field an option reaches. fast_step stays on:
// the canonical form leaves it out (host-tier), so it cannot round-trip.
MachineSpec RandomSpec(Rng& rng, bool manifest_reachable) {
  MachineSpec spec;
  spec.program = Pick(rng, kPaths, std::size(kPaths));
  for (uint64_t n = rng.Below(4); n > 0; --n) {
    spec.mcode.push_back(Pick(rng, kPaths, std::size(kPaths)));
  }
  spec.config.mroutine_storage = static_cast<MroutineStorage>(rng.Below(3));
  if (!manifest_reachable) {
    spec.config.fast_transition = rng.Chance(1, 2);
    spec.config.mram_parity = rng.Chance(1, 2);
  }
  spec.config.metal_watchdog_cycles = rng.Chance(1, 2) ? 0 : rng.Next64() >> 1;
  for (uint64_t n = rng.Below(3); n > 0; --n) {
    spec.inject.push_back(Pick(rng, kInjects, std::size(kInjects)));
  }
  spec.fault_seed = rng.Chance(1, 2) ? 0 : rng.Next64() >> 1;
  return spec;
}

// The argument loop of `msim run`, machine part: flags plus the program.
MachineSpec ParseArgs(const std::vector<std::string>& args) {
  MachineSpec spec;
  for (size_t i = 0; i < args.size(); ++i) {
    const auto flag = ParseMachineFlag(args, &i, kMachineFlags, &spec);
    EXPECT_TRUE(flag.ok()) << flag.status().ToString();
    if (flag.ok() && !*flag) {
      EXPECT_TRUE(spec.program.empty()) << "second positional " << args[i];
      spec.program = args[i];
    }
  }
  return spec;
}

std::string ManifestFor(const MachineSpec& spec) {
  std::string text = "[job j]\nprogram = " + spec.program + "\n";
  for (const std::string& path : spec.mcode) {
    text += "mcode = " + path + "\n";
  }
  const char* const kStorage[] = {"mram", "dram-cached", "dram-uncached"};
  text += StrFormat("storage = %s\n", kStorage[static_cast<int>(spec.config.mroutine_storage)]);
  for (const std::string& inject : spec.inject) {
    text += "inject = " + inject + "\n";
  }
  text += StrFormat("fault-seed = %llu\nwatchdog = %llu\n", (unsigned long long)spec.fault_seed,
                    (unsigned long long)spec.config.metal_watchdog_cycles);
  return text;
}

TEST(MachineSpecTest, CanonicalArgsRoundTripThroughTheFlagParser) {
  Rng rng(20261018);
  for (int n = 0; n < 500; ++n) {
    const MachineSpec spec = RandomSpec(rng, /*manifest_reachable=*/false);
    const std::vector<std::string> args = MsimArgs(spec);
    EXPECT_EQ(ParseArgs(args), spec) << ShellJoin(args);
    MachineSpec per_cycle = spec;
    per_cycle.config.fast_step = false;
    EXPECT_EQ(MsimArgs(per_cycle), args) << "fast_step is host-tier, never serialized";
  }
}

TEST(MachineSpecTest, CanonicalArgsOmitDefaultsInAFixedOrder) {
  MachineSpec spec;
  spec.program = "p.s";
  EXPECT_EQ(MsimArgs(spec), std::vector<std::string>{"p.s"});
  spec.mcode = {"a.s", "b.s"};
  spec.config.mroutine_storage = MroutineStorage::kDramUncached;
  spec.config.fast_transition = false;
  spec.config.mram_parity = false;
  spec.inject = {"mreg@20:at=3,bit=0"};
  spec.fault_seed = 7;
  spec.config.metal_watchdog_cycles = 100;
  EXPECT_EQ(ShellJoin(MsimArgs(spec)),
            "p.s --mcode a.s --mcode b.s --storage dram-uncached --no-fast --no-parity "
            "--inject mreg@20:at=3,bit=0 --fault-seed 7 --watchdog 100");
}

TEST(MachineSpecTest, ManifestKeysNameTheSameMachineAsFlags) {
  Rng rng(7);
  for (int n = 0; n < 300; ++n) {
    const MachineSpec spec = RandomSpec(rng, /*manifest_reachable=*/true);
    const std::string manifest = ManifestFor(spec);
    const auto jobs = ParseManifest(manifest);
    ASSERT_TRUE(jobs.ok()) << jobs.status().ToString() << "\n" << manifest;
    EXPECT_EQ((*jobs)[0].machine, spec) << manifest;
    EXPECT_EQ((*jobs)[0].machine, ParseArgs(MsimArgs(spec)));
  }
}

TEST(MachineSpecTest, FleetArgvIsCanonicalArgsThenJobPlumbing) {
  Rng rng(11);
  for (int n = 0; n < 100; ++n) {
    JobSpec job;
    job.name = "j";
    job.machine = RandomSpec(rng, /*manifest_reachable=*/true);
    job.max_cycles = 1000;
    job.checkpoint_every = 100;
    job.extra_args = {"--no-fast-step"};
    const AttemptPlan plan =
        PlanAttempt(job, "/bin/msim", "/out/jobs/j", 2, "/out/jobs/j/ckpts/c.msnap", 300, 50);
    std::vector<std::string> want = {"/bin/msim", "run"};
    for (const std::string& arg : MsimArgs(job.machine)) {
      want.push_back(arg);
    }
    for (const char* arg :
         {"--max-cycles", "700", "--checkpoint-every", "100", "--checkpoint-dir",
          "/out/jobs/j/ckpts", "--restore", "/out/jobs/j/ckpts/c.msnap", "--stats-json",
          "/out/jobs/j/stats.json", "--crash-dump", "/out/jobs/j/crash.json", "--metrics-every",
          "50", "--metrics-jsonl", "/out/jobs/j/heartbeat.jsonl", "--no-fast-step"}) {
      want.push_back(arg);
    }
    EXPECT_EQ(plan.argv, want);
  }
}

TEST(MachineSpecTest, BFlagsApplyWithTheirPrefixOnly) {
  const std::vector<std::string> args = {"--b-storage", "dram-cached", "--b-no-fast",
                                         "--b-fast", "--b-no-fast-step", "--b-fault-seed", "9",
                                         "--b-mcode", "x.s", "--storage", "dram-uncached"};
  MachineSpec b;
  size_t i = 0;
  for (; i < 7; ++i) {
    ASSERT_TRUE(ParseMachineFlag(args, &i, kReplayBFlags, &b, "--b-").value()) << args[i];
  }
  EXPECT_EQ(b.config.mroutine_storage, MroutineStorage::kDramCached);
  EXPECT_TRUE(b.config.fast_transition);  // the later --b-fast wins
  EXPECT_FALSE(b.config.fast_step);
  EXPECT_EQ(b.fault_seed, 9u);
  EXPECT_FALSE(ParseMachineFlag(args, &i, kReplayBFlags, &b, "--b-").value());  // no --b-mcode
  i = 9;
  EXPECT_FALSE(ParseMachineFlag(args, &i, kReplayBFlags, &b, "--b-").value());  // not --b-
  // A valued flag without its value is left to the caller's unknown-argument path.
  const std::vector<std::string> dangling = {"--watchdog"};
  i = 0;
  EXPECT_FALSE(ParseMachineFlag(dangling, &i, kMachineFlags, &b).value());
  EXPECT_EQ(i, 0u);
  const std::vector<std::string> bad = {"--b-fault-seed", "1x"};
  i = 0;
  const auto error = ParseMachineFlag(bad, &i, kReplayBFlags, &b, "--b-");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().message(),
            "invalid value for --b-fault-seed: '1x' (want a non-negative integer)");
}

// Runs `script` with $MSIM standing in for msim: the stand-in records its
// working directory and arguments, one per line.
std::vector<std::string> RunReproScript(const std::string& dir, const std::string& script) {
  const std::string fake = dir + "/fake-msim.sh";
  std::ofstream(fake) << "#!/bin/sh\npwd > \"$RECORD\"\nprintf '%s\\n' \"$@\" >> \"$RECORD\"\n";
  std::ofstream(dir + "/repro.sh") << script;
  const std::string record = dir + "/record.txt";
  const std::string command = "cd / && chmod +x '" + fake + "' && RECORD='" + record +
                              "' MSIM='" + fake + "' sh '" + dir + "/repro.sh'";
  EXPECT_EQ(std::system(command.c_str()), 0);
  std::ifstream in(record);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// mfuzz's lockstep-oracle repro under --no-parity: the machine part comes
// from the spec, so it keeps --no-parity, and the script cds to its own
// directory, so it runs from anywhere.
TEST(MachineSpecTest, LockstepReproCarriesNoParityAndRunsFromAnywhere) {
  MachineSpec machine;
  machine.program = "program.s";
  machine.mcode = {"mcode.s"};
  const std::vector<std::string> flags = {"--no-parity"};
  size_t i = 0;
  ASSERT_TRUE(ParseMachineFlag(flags, &i, kOptNoParity, &machine).value());
  const std::string script = ReplayScript("# Reproduces the divergence found by mfuzz.\n",
                                          ShellJoin(MsimArgs(machine)), "--b-no-fast", 5000);
  EXPECT_NE(script.find("replay program.s --mcode mcode.s --no-parity --until-divergence"),
            std::string::npos)
      << script;
  const std::string dir = MakeDir("repro dir");
  const std::vector<std::string> record = RunReproScript(dir, script);
  const std::vector<std::string> want = {
      dir,         "replay",      "program.s", "--mcode",    "mcode.s",
      "--no-parity", "--until-divergence", "--b-no-fast", "--max-cycles", "5000"};
  EXPECT_EQ(record, want);
}

TEST(MachineSpecTest, ShellJoinQuotesOnlyWhatNeedsIt) {
  EXPECT_EQ(ShellJoin({"guest.s", "--mcode", "mcode0-m_c.s", "--inject", "mreg@20:at=3,bit=0"}),
            "guest.s --mcode mcode0-m_c.s --inject mreg@20:at=3,bit=0");
  const std::vector<std::string> args = {"guest one.s", "it's", "$HOME", "", "a\"b", "*"};
  EXPECT_EQ(ShellJoin(args), "'guest one.s' 'it'\\''s' '$HOME' '' 'a\"b' '*'");
  const std::string dir = MakeDir("shell join");
  std::vector<std::string> record =
      RunReproScript(dir, "#!/bin/sh\nexec \"$MSIM\" " + ShellJoin(args) + "\n");
  ASSERT_FALSE(record.empty());
  record.erase(record.begin());  // the working directory
  EXPECT_EQ(record, args);
}

// Bit flips, truncations and dropped or duplicated tokens of valid machine
// flags: the parser and the fault-spec installer answer success or a usage
// error, never a crash (the sanitizer build runs this too).
TEST(MachineSpecRobustnessTest, MutatedFlagsAreUsageErrorsOrAccepted) {
  Rng rng(0xF1A65);
  for (int n = 0; n < 3000; ++n) {
    std::vector<std::string> args = MsimArgs(RandomSpec(rng, /*manifest_reachable=*/false));
    for (const char* b : {"--b-storage", "dram-cached", "--b-fault-seed", "3", "--b-fast"}) {
      if (rng.Chance(1, 3)) {
        args.push_back(b);
      }
    }
    for (uint64_t m = rng.Range(1, 3); m > 0; --m) {
      const size_t at = rng.Below(args.size());
      switch (rng.Below(4)) {
        case 0:
          if (!args[at].empty()) {
            args[at][rng.Below(args[at].size())] ^= static_cast<char>(1u << rng.Below(8));
          }
          break;
        case 1: args[at].resize(rng.Below(args[at].size() + 1)); break;
        case 2: args.erase(args.begin() + at); break;
        default: args.insert(args.begin() + at, args[at]); break;
      }
      if (args.empty()) {
        break;
      }
    }
    MachineSpec spec;
    MachineSpec b;
    for (size_t i = 0; i < args.size(); ++i) {
      auto flag = ParseMachineFlag(args, &i, kMachineFlags, &spec);
      if (flag.ok() && !*flag) {
        flag = ParseMachineFlag(args, &i, kReplayBFlags, &b, "--b-");
      }
      if (!flag.ok()) {
        EXPECT_EQ(flag.status().code(), ErrorCode::kInvalidArgument);
        break;
      }
    }
    for (const MachineSpec* machine : {&spec, &b}) {
      FaultEngine engine(machine->fault_seed);
      const Status status = AddFaultSpecs(*machine, rng.Below(200), engine);
      EXPECT_TRUE(status.ok() || status.code() == ErrorCode::kInvalidArgument ||
                  status.code() == ErrorCode::kParseError)
          << status.ToString();
    }
  }
}

TEST(MachineSpecRobustnessTest, MutatedManifestsAreParseErrorsOrAccepted) {
  Rng rng(0x3A71F);
  for (int n = 0; n < 3000; ++n) {
    std::string text = "[defaults]\nstorage = dram-cached\nretries = 2\n" +
                       ManifestFor(RandomSpec(rng, /*manifest_reachable=*/true)) +
                       "max-cycles = 1000\nargs = --no-fast-step\n";
    for (uint64_t m = rng.Range(1, 3); m > 0 && !text.empty(); --m) {
      std::vector<std::string_view> lines = Split(text, '\n');
      const size_t at = rng.Below(text.size());
      switch (rng.Below(4)) {
        case 0: text[at] ^= static_cast<char>(1u << rng.Below(8)); break;
        case 1: text.resize(at); break;
        default: {
          const size_t line = rng.Below(lines.size());
          std::string rebuilt;
          for (size_t l = 0; l < lines.size(); ++l) {
            const int copies = l != line ? 1 : (rng.Chance(1, 2) ? 0 : 2);
            for (int c = 0; c < copies; ++c) {
              rebuilt += std::string(lines[l]) + "\n";
            }
          }
          text = rebuilt;
          break;
        }
      }
    }
    const auto jobs = ParseManifest(text);
    if (!jobs.ok()) {
      EXPECT_EQ(jobs.status().code(), ErrorCode::kParseError) << jobs.status().ToString();
    }
  }
}

}  // namespace
}  // namespace msim
