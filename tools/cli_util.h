// Helpers shared by the command-line tools (msim, mcamp, mfuzz, msimd).
// Each tool keeps its own flag loop; these are only the parsing and file
// pieces they have in common. A false return from a parser is a usage
// error: the caller exits 2.
#ifndef MSIM_TOOLS_CLI_UTIL_H_
#define MSIM_TOOLS_CLI_UTIL_H_

#include <cstdint>
#include <string>

#include "cpu/config.h"
#include "support/result.h"

namespace msim {

// Strict numeric flag parsing (support/strings.h ParseInt): rejects trailing
// junk ("100abc"), bare garbage, negative values and overflow, instead of
// the strtoull behaviour of silently yielding 0 or saturating.
bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out);

// mram | dram-cached | dram-uncached. Silent: callers report the bad mode.
bool ParseStorageMode(const std::string& mode, MroutineStorage* out);

// Reads a whole file (assembly sources); NotFound if it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

}  // namespace msim

#endif  // MSIM_TOOLS_CLI_UTIL_H_
