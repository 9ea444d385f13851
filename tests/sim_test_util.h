// Shared helpers for the test suite.
#ifndef MSIM_TESTS_SIM_TEST_UTIL_H_
#define MSIM_TESTS_SIM_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "asm/assembler.h"
#include "cpu/core.h"
#include "metal/system.h"

namespace msim {

// Runs `command` through the shell; its exit status, or -1 if it did not
// exit normally.
inline int RunShell(const std::string& command) {
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

// `json` (a --stats-json document or a MetricRegistry dump) without the
// host-tier "superblock" metric component. It counts which execution tier
// served the run, so it differs between stepping modes and across a restore
// (the trace cache starts cold); every other component is architectural and
// must match.
inline std::string WithoutHostTierMetrics(std::string json) {
  const char* component = "\"superblock\":{";
  const size_t begin = json.find(component);
  const size_t end = json.find('}', begin);
  EXPECT_NE(end, std::string::npos) << component << " missing from " << json;
  if (end != std::string::npos) {
    // The component is flat and never last: drop the trailing comma too.
    json.erase(begin, end + 2 - begin);
  }
  return json;
}

// Asserts the status/result is ok, printing the message otherwise.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const auto& status_ = (expr);                                \
    ASSERT_TRUE(status_.ok()) << status_.ToString();             \
  } while (0)
#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const auto& status_ = (expr);                                \
    EXPECT_TRUE(status_.ok()) << status_.ToString();             \
  } while (0)

// Assembles or fails the test.
inline Program MustAssemble(std::string_view source,
                            const AssembleOptions& options = AssembleOptions{}) {
  auto program = Assemble(source, options);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) {
    return Program{};
  }
  return std::move(program).value();
}

// Assembles mcode at the MRAM base and loads it directly (low-level tests
// that do not use MetalSystem).
inline void MustLoadMcodeRaw(Core& core, std::string_view source) {
  AssembleOptions options;
  options.text_base = kMramCodeBase;
  options.data_base = 0;
  const Program program = MustAssemble(source, options);
  for (size_t i = 0; i + 4 <= program.text.bytes.size(); i += 4) {
    uint32_t word = 0;
    for (int b = 0; b < 4; ++b) {
      word |= static_cast<uint32_t>(program.text.bytes[i + b]) << (8 * b);
    }
    ASSERT_TRUE(core.mram().WriteCodeWord(static_cast<uint32_t>(i), word));
  }
  for (size_t i = 0; i < program.data.bytes.size(); i += 4) {
    uint32_t word = 0;
    for (size_t b = 0; b < 4 && i + b < program.data.bytes.size(); ++b) {
      word |= static_cast<uint32_t>(program.data.bytes[i + b]) << (8 * b);
    }
    ASSERT_TRUE(core.mram().WriteData32(static_cast<uint32_t>(i), word));
  }
  for (const auto& [entry, addr] : program.metal_entries) {
    core.metal().SetEntryAddress(entry, addr);
  }
}

// Runs and expects a clean halt with the given exit code.
inline RunResult MustHalt(Core& core, uint32_t want_exit, uint64_t max_cycles = 2'000'000) {
  const RunResult result = core.Run(max_cycles);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  EXPECT_EQ(result.exit_code, want_exit);
  return result;
}

inline RunResult MustHalt(MetalSystem& system, uint32_t want_exit,
                          uint64_t max_cycles = 2'000'000) {
  const RunResult result = system.Run(max_cycles);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  EXPECT_EQ(result.exit_code, want_exit);
  return result;
}

}  // namespace msim

#endif  // MSIM_TESTS_SIM_TEST_UTIL_H_
