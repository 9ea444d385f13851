#include "cli_util.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/strings.h"

namespace msim {

bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out) {
  const auto value = ParseInt(text);
  if (!value || *value < 0) {
    std::fprintf(stderr, "invalid value for %s: '%s' (want a non-negative integer)\n", flag,
                 text.c_str());
    return false;
  }
  *out = static_cast<uint64_t>(*value);
  return true;
}

bool ParseStorageMode(const std::string& mode, MroutineStorage* out) {
  if (mode == "mram") {
    *out = MroutineStorage::kMram;
  } else if (mode == "dram-cached") {
    *out = MroutineStorage::kDramCached;
  } else if (mode == "dram-uncached") {
    *out = MroutineStorage::kDramUncached;
  } else {
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

}  // namespace msim
