// Indexed names for the netlists and circuits tests build ("n0", "r1",
// ...).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace lsl::test {

/// `prefix` followed by `i` in decimal. Built by appending: once
/// inlined, `"n" + std::to_string(i)` draws a false -Wrestrict overlap
/// report from GCC 12.
inline std::string indexed(std::string_view prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

}  // namespace lsl::test
