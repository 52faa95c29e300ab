// Checked CLI argument parsing for the tools and examples.
//
// `*parse_int(value)` on user input is a crash waiting for a typo:
// parse_int returns nullopt on garbage and dereferencing that is UB.
// Every tool flag goes through these helpers instead — malformed input
// prints one uniform usage error to stderr and exits with status 2 (the
// conventional usage-error code), never a crash.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "base/strings.hpp"

namespace hetpapi::cli {

[[noreturn]] inline void usage_error(std::string_view flag,
                                     std::string_view value,
                                     std::string_view expected) {
  std::fprintf(stderr, "error: invalid value \"%.*s\" for %.*s (expected %.*s)\n",
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(expected.size()), expected.data());
  std::exit(2);
}

/// Parse `value` as an integer or die with a usage error naming `flag`.
inline std::int64_t require_int(std::string_view flag, std::string_view value) {
  const auto parsed = parse_int(value);
  if (!parsed) usage_error(flag, value, "an integer");
  return *parsed;
}

/// require_int constrained to >= 1 (sizes, counts, periods).
inline std::int64_t require_positive_int(std::string_view flag,
                                         std::string_view value) {
  const auto parsed = parse_int(value);
  if (!parsed || *parsed < 1) usage_error(flag, value, "a positive integer");
  return *parsed;
}

}  // namespace hetpapi::cli
