// String helpers used mostly by the assembler.
#ifndef MSIM_SUPPORT_STRINGS_H_
#define MSIM_SUPPORT_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace msim {

// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view text);

// Splits on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view text, char sep);

// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

// Parses a signed 64-bit integer. Accepts decimal, 0x hex, 0b binary and a
// leading '-'. Returns nullopt on malformed input or overflow.
std::optional<int64_t> ParseInt(std::string_view text);

// ParseInt restricted to non-negative values; false (and *out untouched) for
// anything else.
bool ParseU64(std::string_view text, uint64_t* out);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace msim

#endif  // MSIM_SUPPORT_STRINGS_H_
