/// \file cli.hpp
/// \brief Strict positional-argument parsing for the bench and example
/// command lines.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace nebulameos {

/// Positional argument \p index as an integer in [1, \p max], or
/// \p fallback when it is absent. Non-numeric, trailing-garbage or
/// out-of-range input prints the offending value and a usage line
/// (`usage: <argv[0]> <usage>`) to stderr and exits with code 2, so a
/// typo never silently runs with 0.
inline uint64_t PositiveArgOrExit(int argc, char** argv, int index,
                                  uint64_t fallback, const char* usage,
                                  int64_t max = INT64_MAX) {
  if (argc <= index) return fallback;
  const Result<int64_t> value = ParseInt64(argv[index]);
  if (value.ok() && *value > 0 && *value <= max) {
    return static_cast<uint64_t>(*value);
  }
  std::fprintf(stderr,
               "%s: argument %d must be an integer in 1..%lld, got '%s'\n"
               "usage: %s %s\n",
               argv[0], index, static_cast<long long>(max), argv[index],
               argv[0], usage);
  std::exit(2);
}

}  // namespace nebulameos
