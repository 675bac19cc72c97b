#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

/// \file baseline.hpp
/// Reading the recorded figures a gated bench compares against
/// (bench/baselines/*.json, passed as `--baseline <path>`).

namespace planetp::benchutil {

/// The whole baseline file, or nullopt (after printing the gate's FAIL line
/// to stderr) when it cannot be read.
inline std::optional<std::string> read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The number after `"key":` in a flat JSON document; -1 when the key is
/// absent.
inline double parse_key(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return -1.0;
  const std::size_t colon = json.find(':', at);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

}  // namespace planetp::benchutil
