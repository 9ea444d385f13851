#include "support/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace msim {

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::optional<int64_t> ParseInt(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.empty()) {
    return std::nullopt;
  }
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    text.remove_prefix(1);
    if (text.empty()) {
      return std::nullopt;
    }
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 2 && text[0] == '0' && (text[1] == 'b' || text[1] == 'B')) {
    base = 2;
    text.remove_prefix(2);
  }
  if (text.empty()) {
    return std::nullopt;
  }
  uint64_t magnitude = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else if (c == '_') {
      continue;  // digit separator
    } else {
      return std::nullopt;
    }
    if (digit >= base) {
      return std::nullopt;
    }
    const uint64_t next = magnitude * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
    if (next < magnitude) {
      return std::nullopt;  // overflow
    }
    magnitude = next;
  }
  // Allow the full unsigned 32-bit range as well as negative values; the
  // assembler range-checks against the target field afterwards.
  if (!negative && magnitude > 0xFFFFFFFFull && magnitude > 0x7FFFFFFFFFFFFFFFull) {
    return std::nullopt;
  }
  if (negative && magnitude > 0x8000000000000000ull) {
    return std::nullopt;
  }
  return negative ? -static_cast<int64_t>(magnitude) : static_cast<int64_t>(magnitude);
}

bool ParseU64(std::string_view text, uint64_t* out) {
  const auto value = ParseInt(text);
  if (!value || *value < 0) {
    return false;
  }
  *out = static_cast<uint64_t>(*value);
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace msim
