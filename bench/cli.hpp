// Strict command lines for the bench binaries: an unknown flag, a flag
// missing its value, or a count that does not parse prints the usage
// line and exits with status 2, instead of running with a silently
// ignored flag.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace lsl::bench {

/// Prints "usage: <prog> <flags>" to stderr and exits with status 2.
[[noreturn]] inline void usage_exit(const char* prog, const char* flags) {
  std::fprintf(stderr, "usage: %s %s\n", prog, flags);
  std::exit(2);
}

/// The value of the flag at argv[i] (advancing i past it); the usage
/// exit when the value is missing.
inline const char* flag_value(int argc, char** argv, int& i, const char* flags) {
  if (i + 1 >= argc) usage_exit(argv[0], flags);
  return argv[++i];
}

/// A non-negative decimal count as the flag's value; the usage exit
/// when it is missing or does not parse.
inline std::size_t count_value(int argc, char** argv, int& i, const char* flags) {
  const char* v = flag_value(argc, argv, i, flags);
  char* end = nullptr;
  const unsigned long n = std::strtoul(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0') usage_exit(argv[0], flags);
  return static_cast<std::size_t>(n);
}

}  // namespace lsl::bench
